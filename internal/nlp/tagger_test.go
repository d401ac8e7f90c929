package nlp

import "testing"

// tagged tokenizes and tags a sentence in one step.
func tagged(s string) []Token { return Tag(Tokenize(s)) }

func tagsOf(t *testing.T, q string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, tok := range tagged(q) {
		out[tok.Lower] = tok.Tag
	}
	return out
}

func TestTagClosedClasses(t *testing.T) {
	tags := tagsOf(t, "Who is the mayor of Berlin?")
	want := map[string]string{
		"who": "WP", "is": "VBZ", "the": "DT", "mayor": "NN",
		"of": "IN", "berlin": "NNP",
	}
	for w, wantTag := range want {
		if tags[w] != wantTag {
			t.Errorf("%q tagged %s, want %s", w, tags[w], wantTag)
		}
	}
}

func TestTagProperNouns(t *testing.T) {
	toks := tagged("Which cities does the Weser flow through?")
	for _, tok := range toks {
		switch tok.Lower {
		case "weser":
			if tok.Tag != "NNP" {
				t.Errorf("Weser tagged %s", tok.Tag)
			}
		case "flow":
			if tok.Tag != "VB" {
				t.Errorf("flow tagged %s, want VB (do-support repair)", tok.Tag)
			}
		case "cities":
			if tok.Tag != "NNS" {
				t.Errorf("cities tagged %s", tok.Tag)
			}
		case "which":
			if tok.Tag != "WDT" {
				t.Errorf("which tagged %s, want WDT before noun", tok.Tag)
			}
		}
	}
}

func TestTagRelativePronoun(t *testing.T) {
	toks := tagged("an actor that played in Philadelphia")
	for _, tok := range toks {
		if tok.Lower == "that" && tok.Tag != "WDT" {
			t.Errorf("relative 'that' tagged %s, want WDT", tok.Tag)
		}
		if tok.Lower == "played" && !IsVerbTag(tok.Tag) {
			t.Errorf("played tagged %s, want verb", tok.Tag)
		}
	}
	// Determiner reading: "that movie" after a verb context.
	toks = tagged("Who directed that movie?")
	for _, tok := range toks {
		if tok.Lower == "that" && tok.Tag != "DT" {
			t.Errorf("determiner 'that' tagged %s, want DT", tok.Tag)
		}
	}
}

func TestTagVerbInNounSlot(t *testing.T) {
	tags := tagsOf(t, "What is the birth name of Angela Merkel?")
	if tags["name"] != "NN" {
		t.Errorf("'name' after noun tagged %s, want NN", tags["name"])
	}
	tags = tagsOf(t, "Give me the list of all countries.")
	if tags["list"] != "NN" {
		t.Errorf("'list' after determiner tagged %s, want NN", tags["list"])
	}
	// But sentence-initial imperative stays a verb.
	tags = tagsOf(t, "List the children of Margaret Thatcher.")
	if !IsVerbTag(tags["list"]) {
		t.Errorf("imperative 'List' tagged %s, want verb", tags["list"])
	}
}

func TestTagDoSupportRepair(t *testing.T) {
	tags := tagsOf(t, "Which movies did Antonio Banderas star in?")
	if tags["star"] != "VB" {
		t.Errorf("'star' tagged %s, want VB", tags["star"])
	}
	if tags["did"] != "VBD" {
		t.Errorf("'did' tagged %s, want VBD", tags["did"])
	}
}

func TestTagNumbers(t *testing.T) {
	tags := tagsOf(t, "Name all movies from 1994.")
	if tags["1994"] != "CD" {
		t.Errorf("1994 tagged %s, want CD", tags["1994"])
	}
}

func TestTagSuperlatives(t *testing.T) {
	tags := tagsOf(t, "Who is the youngest player in the Premier League?")
	if tags["youngest"] != "JJS" {
		t.Errorf("youngest tagged %s, want JJS", tags["youngest"])
	}
	if tags["player"] != "NN" {
		t.Errorf("player tagged %s, want NN", tags["player"])
	}
}

func TestTagLemmasAssigned(t *testing.T) {
	for _, tok := range tagged("Who was married to an actor?") {
		if tok.Lemma == "" {
			t.Fatalf("token %q has no lemma", tok.Text)
		}
	}
}

func TestTagGuessFallbacks(t *testing.T) {
	cases := map[string]string{
		"running":   "VBG",
		"walked":    "VBD",
		"beautiful": "JJ",
		"strongest": "JJS",
		"quickly":   "RB",
		"tables":    "NNS",
		"table":     "NN",
	}
	for w, want := range cases {
		if got := guessTag(w); got != want {
			t.Errorf("guessTag(%q) = %s, want %s", w, got, want)
		}
	}
}
