// Aggregation: the paper's future-work extension in action — counting and
// superlative questions answered by a count or a ranking applied to the
// answers of their base question, plus the equivalent explicit SPARQL with
// FILTER/ORDER BY. Opening with EnableAggregation registers the bundled
// KB's superlatives; RegisterSuperlative, called below for two of them,
// adds or redefines one.
//
//	go run ./examples/aggregation
package main

import (
	"fmt"
	"log"
	"strings"

	"gqa"
)

func main() {
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{EnableAggregation: true})
	if err != nil {
		log.Fatal(err)
	}
	sys.RegisterSuperlative("youngest", "http://dbpedia.org/ontology/age", false)
	sys.RegisterSuperlative("oldest", "http://dbpedia.org/ontology/age", true)

	for _, q := range []string{
		"How many films did Antonio Banderas star in?",
		"How many children did Margaret Thatcher have?",
		"Who is the youngest player in the Premier League?",
		"What is the longest river in Germany?", // still unanswerable: no length data
	} {
		ans, err := sys.Answer(q)
		if err != nil {
			log.Fatal(err)
		}
		answer := strings.Join(ans.Labels, "; ")
		if !ans.OK {
			answer = "(no answer — " + ans.Failure + ")"
		}
		fmt.Printf("%-55s → %s\n", q, answer)
	}

	// The same superlative as explicit SPARQL, using the ORDER BY /
	// OFFSET / LIMIT rewrite the paper sketches (§6, failure analysis).
	fmt.Println("\nexplicit SPARQL equivalent:")
	res, err := sys.Query(`
		SELECT ?p WHERE { ?p dbo:playsIn dbr:Premier_League . ?p dbo:age ?a }
		ORDER BY ?a OFFSET 0 LIMIT 1`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println("  youngest =", row["p"].Label())
	}
}
