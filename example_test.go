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
