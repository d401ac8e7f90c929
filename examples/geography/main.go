// Geography: rivers, cities and countries — mixing natural-language
// questions (including a wh-determined class variable, "which cities") with
// direct SPARQL over the same graph.
//
//	go run ./examples/geography
package main

import (
	"fmt"
	"log"
	"strings"

	"gqa"
)

func main() {
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("— natural language —")
	for _, q := range []string{
		"Which cities does the Weser flow through?",
		"Which countries are connected by the Rhine?",
		"What is the capital of Canada?",
		"In which city was the former Dutch queen Juliana buried?",
		"How high is the Mount Everest?",
		"Berlin is the capital of which country?",
	} {
		ans, err := sys.Answer(q)
		if err != nil {
			log.Fatal(err)
		}
		answer := strings.Join(ans.Labels, "; ")
		if !ans.OK {
			answer = "(no answer — " + ans.Failure + ")"
		}
		fmt.Printf("  %-55s → %s\n", q, answer)
	}

	fmt.Println("— the same graph via SPARQL —")
	res, err := sys.Query(`
		PREFIX dbo: <http://dbpedia.org/ontology/>
		SELECT DISTINCT ?city WHERE {
			?river a dbo:River .
			?river dbo:city ?city .
		}`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println("  ?city =", row["city"].LocalName())
	}
}
