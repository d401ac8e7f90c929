package gqa_test

import (
	"fmt"
	"log"
	"strings"

	"gqa"
)

// The zero-setup path: the zero Source is the bundled knowledge base with a
// freshly mined paraphrase dictionary.
func ExampleOpen() {
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ans, err := sys.Answer("Who is the mayor of Berlin?")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(strings.Join(ans.Labels, "; "))
	// Output: Klaus Wowereit
}

// The paper's running example: three readings of "Philadelphia", two of
// "played in" — resolved by the data, not by upfront disambiguation.
func ExampleSystem_Answer() {
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ans, err := sys.Answer("Who was married to an actor that played in Philadelphia?")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(strings.Join(ans.Labels, "; "))
	// Output: Melanie Griffith
}

// Boolean (ASK-style) questions return a truth value.
func ExampleSystem_Answer_boolean() {
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		log.Fatal(err)
	}
	ans, err := sys.Answer("Is Berlin the capital of Germany?")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(*ans.Boolean)
	// Output: true
}

// SPARQL runs against the same graph, for power users.
func ExampleSystem_Query() {
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Query(`
		SELECT ?film WHERE { ?film dbo:starring dbr:Antonio_Banderas . ?film a dbo:Film }
		ORDER BY ?film`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row["film"].Label())
	}
	// Output:
	// Desperado
	// Philadelphia (film)
	// The Mask of Zorro
}

// The aggregation extension (the paper's future work) answers counting and
// superlative questions: the four examples/aggregation asks. Opening with
// EnableAggregation registers the bundled KB's superlatives.
func ExampleSystem_Answer_aggregation() {
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{EnableAggregation: true})
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range []string{
		"How many films did Antonio Banderas star in?",
		"How many children did Margaret Thatcher have?",
		"Who is the youngest player in the Premier League?",
		"What is the longest river in Germany?", // no length data
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
	// Output:
	// How many films did Antonio Banderas star in?            → 3
	// How many children did Margaret Thatcher have?           → 2
	// Who is the youngest player in the Premier League?       → Theo Walcott
	// What is the longest river in Germany?                   → (no answer — aggregation)
}
