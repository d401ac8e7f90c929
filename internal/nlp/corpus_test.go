package nlp

import (
	"strings"
	"testing"
)

// corpusQuestions is a robustness corpus: QALD-flavored interrogatives,
// both in and out of the benchmark workload, plus degenerate inputs. The
// parser must produce a valid tree for every one (the quality of specific
// attachments is covered by parser_test.go).
var corpusQuestions = []string{
	"Who was the successor of John F. Kennedy?",
	"Who is the mayor of Berlin?",
	"Give me all members of Prodigy.",
	"What is the capital of Canada?",
	"Who is the governor of Wyoming?",
	"Who was the father of Queen Elizabeth II?",
	"Give me all movies directed by Francis Ford Coppola.",
	"What is the birth name of Angela Merkel?",
	"Who developed Minecraft?",
	"Give me all companies in Munich.",
	"Who founded Intel?",
	"Which cities does the Weser flow through?",
	"Which countries are connected by the Rhine?",
	"What are the nicknames of San Francisco?",
	"What is the time zone of Salt Lake City?",
	"When did Michael Jackson die?",
	"List the children of Margaret Thatcher.",
	"Who was called Scarface?",
	"How high is the Mount Everest?",
	"How tall is Michael Jordan?",
	"Who created the comic Captain America?",
	"What is the largest city in Australia?",
	"In which city was the former Dutch queen Juliana buried?",
	"Who produces Orangina?",
	"Which movies did Antonio Banderas star in?",
	"In which movies did Antonio Banderas star?",
	"Who was married to an actor that played in Philadelphia?",
	"Who is the uncle of John F. Kennedy Jr.?",
	"Is Michelle Obama the wife of Barack Obama?",
	"Was Angela Merkel born in Vienna?",
	"Did Tom Hanks play in Philadelphia?",
	"Does the Rhine cross Bremen?",
	"Give me all people that were born in Vienna and died in Berlin.",
	"Which country does the creator of Miffy come from?",
	"Which books by Kerouac were published by Viking Press?",
	"Which actors played in films directed by Jonathan Demme?",
	"Give me all films starring Marlon Brando.",
	"Which films did the director of The Godfather direct?",
	"Sean Parnell is the governor of which U.S. state?",
	"Berlin is the capital of which country?",
	"Through which cities does the Weser flow?",
	"Who is the youngest player in the Premier League?",
	"How many films did Antonio Banderas star in?",
	"In which UK city are the headquarters of the MI6?",
	"Give me all launch pads operated by NASA.",
	"Give me all sister cities of Brno.",
	"What did Bruce Carver die from?",
	"Which software has been developed by organizations founded in California?",
	"Is there a video game called Battle Chess?",
	"Which mountains are higher than the Nanga Parbat?",
	"Who wrote the book The Pillars of the Earth?",
	"Which organizations were founded in 1950?",
	"What is the highest place of Karakoram?",
	"Give me the homepage of Forbes.",
	"Give me all companies in the advertising industry.",
	"Which telecommunications organizations are located in Belgium?",
	"Who is the owner of Universal Studios?",
	"Through which countries does the Yenisei river flow?",
	"When was the Battle of Gettysburg?",
	"What is the melting point of copper?",
	"Which professional surfers were born on the Philippines?",
	"In which military conflicts did Lawrence of Arabia participate?",
	"Which locations have more than two caves?",
	"Was the Cuban Missile Crisis earlier than the Bay of Pigs Invasion?",
	"Give me all soccer clubs in Spain.",
	"What are the official languages of the Philippines?",
	"Who is the youngest player in the Premier League?",
	"Which of Tim Burton's films had the highest budget?",
	"Who was the wife of U.S. president Lincoln?",
	"How did Michael Jackson die?",
	"Show me all songs from Bruce Springsteen released between 1980 and 1990.",
	"What is the most frequent cause of death?",
	"Give me all Frisian islands that belong to the Netherlands.",
	"Which islands belong to Japan?",
	"Where does the Ganges start?",
	"Who was Vincent van Gogh inspired by?",
	"a",
	"who",
	"why why why",
	"Berlin",
	"Give me",
	"!!!",
	"the the the the",
	"In in in of of of",
}

func TestCorpusAlwaysParses(t *testing.T) {
	for _, q := range corpusQuestions {
		if strings.TrimSpace(strings.Trim(q, "!?.")) == "" {
			continue // pure punctuation: Parse correctly errors
		}
		y, err := Parse(q)
		if err != nil {
			t.Errorf("Parse(%q): %v", q, err)
			continue
		}
		if err := y.Validate(); err != nil {
			t.Errorf("Parse(%q): invalid tree: %v\n%s", q, err, treeString(y))
		}
	}
}

// TestCorpusTreesHaveSaneShape: beyond validity, a parsed interrogative
// must have a root that is a verb, noun or adjective, and at least one
// subject-like or object-like dependency when the sentence is a genuine
// question with ≥ 4 words.
func TestCorpusTreesHaveSaneShape(t *testing.T) {
	for _, q := range corpusQuestions {
		if len(Tokenize(q)) < 4 || !strings.HasSuffix(q, "?") {
			continue
		}
		y, err := Parse(q)
		if err != nil {
			continue
		}
		root := y.Node(y.Root)
		tag := root.Tag
		if !IsVerbTag(tag) && !IsNounTag(tag) && !strings.HasPrefix(tag, "JJ") && tag != "CD" {
			t.Errorf("%q: root %q has tag %s", q, root.Text, tag)
		}
		hasArgRel := false
		for _, n := range y.Nodes {
			if IsSubjectRel(n.Rel) || IsObjectRel(n.Rel) {
				hasArgRel = true
				break
			}
		}
		if !hasArgRel {
			t.Errorf("%q: no subject/object dependency at all\n%s", q, treeString(y))
		}
	}
}

// TestCorpusDeterminism: parsing is pure — same input, same tree.
func TestCorpusDeterminism(t *testing.T) {
	for _, q := range corpusQuestions[:20] {
		a, err1 := Parse(q)
		b, err2 := Parse(q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%q: nondeterministic error", q)
		}
		if err1 != nil {
			continue
		}
		if treeString(a) == "" || treeString(a) != treeString(b) {
			t.Fatalf("%q: nondeterministic parse", q)
		}
	}
}
