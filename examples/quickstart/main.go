// Quickstart: ask natural-language questions over the bundled
// mini-DBpedia knowledge base.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"gqa"
)

func main() {
	// The zero Source is the bundled knowledge base; Open loads it and
	// mines its paraphrase dictionary (the offline stage) in-process.
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		log.Fatal(err)
	}

	questions := []string{
		"Who is the mayor of Berlin?",
		"Which movies did Antonio Banderas star in?",
		"Give me all companies in Munich.",
		"Is Michelle Obama the wife of Barack Obama?",
		"Who is the uncle of John F. Kennedy Jr.?",
		"How many films did Antonio Banderas star in?", // unanswerable: aggregation
	}
	for _, q := range questions {
		ans, err := sys.Answer(q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Q: %s\n", q)
		switch {
		case ans.Boolean != nil:
			fmt.Printf("A: %v\n", *ans.Boolean)
		case ans.OK:
			fmt.Printf("A: %s\n", strings.Join(ans.Labels, "; "))
		default:
			fmt.Printf("A: (no answer — %s)\n", ans.Failure)
		}
		fmt.Printf("   understanding %v, total %v\n\n", ans.Understanding, ans.Total)
	}
}
