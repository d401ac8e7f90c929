// Package bench provides the benchmark data for the reproduction: a
// curated mini-DBpedia knowledge base, a QALD-3-style question workload
// with gold answers, Patty-style relation-phrase support sets, and
// synthetic generators for scaling experiments.
//
// The paper evaluates on DBpedia (60 M triples) with the QALD-3 gold
// standard and the Patty phrase datasets, none of which ship with this
// repository; per the substitution policy in DESIGN.md §3, this package
// recreates the *operative properties* of those resources — ambiguous
// mentions, paraphrased relation phrases, multi-hop relations, and a
// stratified failure taxonomy — at laptop scale.
package bench

import (
	"fmt"
	"sort"

	"gqa/internal/rdf"
	"gqa/internal/store"
)

// fact is one curated statement: subject resource, ontology predicate,
// object (resource name or literal).
type fact struct {
	s, p string
	o    rdf.Term
}

func r(name string) rdf.Term { return rdf.Resource(name) }
func lit(s string) rdf.Term  { return rdf.NewLiteral(s) }
func num(s string) rdf.Term  { return rdf.NewTypedLiteral(s, rdf.XSDDouble) }
func date(s string) rdf.Term { return rdf.NewTypedLiteral(s, rdf.XSDDate) }

// typeOf declares entity types; labelOf declares extra labels (aliases).
type typeDecl struct{ entity, class string }
type labelDecl struct {
	name  string // resource name
	label string
}

// classLabels gives classes their linkable names.
var classLabels = map[string][]string{
	"Actor":          {"actor", "actress"},
	"Film":           {"film", "movie"},
	"City":           {"city"},
	"Country":        {"country"},
	"River":          {"river"},
	"Company":        {"company"},
	"Automobile":     {"car", "automobile"},
	"Person":         {"person", "people"},
	"Politician":     {"politician"},
	"Band":           {"band"},
	"Book":           {"book"},
	"VideoGame":      {"video game"},
	"BasketballTeam": {"basketball team"},
	"Mountain":       {"mountain"},
	"Comic":          {"comic"},
	"SoccerPlayer":   {"player", "soccer player"},
	"ArgentineFilm":  {"Argentine film", "Argentine films"},
	"USState":        {"U.S. state", "state"},
}

// facts is the mini-DBpedia. Organized by domain; every question in the
// workload is answerable (or deliberately unanswerable) from these.
var facts = []fact{
	// --- Films and actors (the running example's neighborhood).
	{"Philadelphia_(film)", "starring", r("Antonio_Banderas")},
	{"Philadelphia_(film)", "starring", r("Tom_Hanks")},
	{"Philadelphia_(film)", "director", r("Jonathan_Demme")},
	{"Desperado", "starring", r("Antonio_Banderas")},
	{"Desperado", "starring", r("Salma_Hayek")},
	{"Desperado", "director", r("Robert_Rodriguez")},
	{"The_Mask_of_Zorro", "starring", r("Antonio_Banderas")},
	{"The_Mask_of_Zorro", "starring", r("Anthony_Hopkins")},
	{"The_Mask_of_Zorro", "director", r("Martin_Campbell")},
	{"Runaway_Bride", "starring", r("Julia_Roberts")},
	{"Runaway_Bride", "starring", r("Richard_Gere")},
	{"Runaway_Bride", "director", r("Garry_Marshall")},
	{"Pretty_Woman", "starring", r("Julia_Roberts")},
	{"Pretty_Woman", "starring", r("Richard_Gere")},
	{"The_Godfather", "starring", r("Al_Pacino")},
	{"The_Godfather", "starring", r("Marlon_Brando")},
	{"The_Godfather", "director", r("Francis_Ford_Coppola")},
	{"Apocalypse_Now", "starring", r("Marlon_Brando")},
	{"Apocalypse_Now", "director", r("Francis_Ford_Coppola")},
	{"The_Secret_in_Their_Eyes", "country", r("Argentina")},
	{"Nine_Queens", "country", r("Argentina")},
	{"Antonio_Banderas", "spouse", r("Melanie_Griffith")},
	{"Antonio_Banderas", "birthPlace", r("Malaga")},
	{"Tom_Hanks", "birthPlace", r("Concord_California")},
	{"Al_Capone", "nickname", lit("Scarface")},
	{"Al_Pacino", "birthPlace", r("New_York_City")},

	// --- Video games / tech.
	{"Minecraft", "developer", r("Markus_Persson")},
	{"Intel", "foundedBy", r("Gordon_Moore")},
	{"Intel", "foundedBy", r("Robert_Noyce")},
	{"Orangina", "producer", r("Suntory")},

	// --- Politics.
	{"John_F_Kennedy", "successor", r("Lyndon_B_Johnson")},
	{"Elizabeth_II", "father", r("George_VI")},
	{"Angela_Merkel", "birthName", lit("Angela Dorothea Kasner")},
	{"Barack_Obama", "spouse", r("Michelle_Obama")},
	{"Berlin", "mayor", r("Klaus_Wowereit")},
	{"Alaska", "governor", r("Sean_Parnell")},
	{"Wyoming", "governor", r("Matt_Mead")},
	{"Margaret_Thatcher", "child", r("Mark_Thatcher")},
	{"Margaret_Thatcher", "child", r("Carol_Thatcher")},
	{"Juliana_of_the_Netherlands", "restingPlace", r("Delft")},
	{"Amanda_Palmer", "spouse", r("Neil_Gaiman")},
	{"Michael_Jackson", "deathDate", date("2009-06-25")},

	// --- Geography.
	{"Germany", "capital", r("Berlin")},
	{"Canada", "capital", r("Ottawa")},
	{"Australia", "largestCity", r("Sydney")},
	{"Weser", "city", r("Bremen")},
	{"Weser", "city", r("Bremerhaven")},
	{"Rhine", "country", r("Germany")},
	{"Rhine", "country", r("Switzerland")},
	{"Rhine", "country", r("France")},
	{"Rhine", "inflow", r("Aare")},
	{"Mount_Everest", "elevation", num("8848")},
	{"Michael_Jordan", "height", num("1.98")},
	{"Salt_Lake_City", "timeZone", r("Mountain_Time_Zone")},
	{"San_Francisco", "nickname", lit("The Golden City")},
	{"San_Francisco", "nickname", lit("Fog City")},
	{"Berlin", "country", r("Germany")},
	{"Munich", "country", r("Germany")},
	{"Vienna", "country", r("Austria")},
	{"Philadelphia", "country", r("United_States")},
	{"Philadelphia", "state", r("Pennsylvania")},
	{"Delft", "country", r("Netherlands")},
	{"Bremen", "country", r("Germany")},

	// --- Companies and cars.
	{"BMW", "locationCity", r("Munich")},
	{"Siemens", "locationCity", r("Munich")},
	{"Allianz", "locationCity", r("Munich")},
	{"Intel", "locationCity", r("Santa_Clara")},
	{"BMW_3_Series", "assembly", r("Germany")},
	{"BMW_3_Series", "manufacturer", r("BMW")},
	{"Volkswagen_Golf", "assembly", r("Germany")},
	{"Volkswagen_Golf", "manufacturer", r("Volkswagen")},
	{"Audi_A4", "assembly", r("Germany")},
	{"Audi_A4", "manufacturer", r("Audi")},
	{"Toyota_Corolla", "assembly", r("Japan")},
	{"Toyota_Corolla", "manufacturer", r("Toyota")},

	// --- Music.
	{"The_Prodigy", "bandMember", r("Liam_Howlett")},
	{"The_Prodigy", "bandMember", r("Keith_Flint")},
	{"The_Prodigy", "bandMember", r("Maxim_Reality")},

	// --- Books and comics.
	{"On_the_Road", "author", r("Jack_Kerouac")},
	{"On_the_Road", "publisher", r("Viking_Press")},
	{"The_Dharma_Bums", "author", r("Jack_Kerouac")},
	{"The_Dharma_Bums", "publisher", r("Viking_Press")},
	{"Big_Sur_(novel)", "author", r("Jack_Kerouac")},
	{"Big_Sur_(novel)", "publisher", r("Farrar_Straus_and_Giroux")},
	{"Miffy", "creator", r("Dick_Bruna")},
	{"Dick_Bruna", "nationality", r("Netherlands")},
	{"Captain_America", "creator", r("Joe_Simon")},
	{"Captain_America", "creator", r("Jack_Kirby")},

	// --- Births and deaths (Vienna/Berlin join question).
	{"Arnold_Schoenberg", "birthPlace", r("Vienna")},
	{"Arnold_Schoenberg", "deathPlace", r("Los_Angeles")},
	{"Marlene_Dietrich", "birthPlace", r("Berlin")},
	{"Marlene_Dietrich", "deathPlace", r("Paris")},
	{"Max_Reinhardt", "birthPlace", r("Vienna")},
	{"Max_Reinhardt", "deathPlace", r("New_York_City")},
	{"Emil_Fischer", "birthPlace", r("Vienna")},
	{"Emil_Fischer", "deathPlace", r("Berlin")},

	// --- Family (predicate-path questions: "uncle of").
	{"Joseph_P_Kennedy", "hasChild", r("John_F_Kennedy")},
	{"Joseph_P_Kennedy", "hasChild", r("Ted_Kennedy")},
	{"Joseph_P_Kennedy", "hasChild", r("Robert_F_Kennedy")},
	{"John_F_Kennedy", "hasChild", r("John_F_Kennedy_Jr")},
	{"John_F_Kennedy", "hasChild", r("Caroline_Kennedy")},
	{"Ted_Kennedy", "hasGender", r("Male")},
	{"John_F_Kennedy_Jr", "hasGender", r("Male")},
	{"Robert_F_Kennedy", "hasGender", r("Male")},
	{"John_F_Kennedy", "hasGender", r("Male")},
	{"Joseph_P_Kennedy", "hasGender", r("Male")},
	{"Caroline_Kennedy", "hasGender", r("Female")},

	// --- Basketball (the 76ers ambiguity + aggregation bait).
	{"Aaron_McKie", "playForTeam", r("Philadelphia_76ers")},
	{"Allen_Iverson", "playForTeam", r("Philadelphia_76ers")},
	{"Wayne_Rooney", "playsIn", r("Premier_League")},
	{"Wayne_Rooney", "age", num("27")},
	{"Theo_Walcott", "playsIn", r("Premier_League")},
	{"Theo_Walcott", "age", num("24")},

	// --- Entity-linking-hard: the agency is never labeled "MI6".
	{"Secret_Intelligence_Service", "headquarter", r("London")},
}

var typeDecls = []typeDecl{
	{"Antonio_Banderas", "Actor"}, {"Melanie_Griffith", "Actor"},
	{"Tom_Hanks", "Actor"}, {"Salma_Hayek", "Actor"}, {"Julia_Roberts", "Actor"},
	{"Richard_Gere", "Actor"}, {"Al_Pacino", "Actor"}, {"Marlon_Brando", "Actor"},
	{"Anthony_Hopkins", "Actor"},
	{"Philadelphia_(film)", "Film"}, {"Desperado", "Film"}, {"The_Mask_of_Zorro", "Film"},
	{"Runaway_Bride", "Film"}, {"Pretty_Woman", "Film"}, {"The_Godfather", "Film"},
	{"Apocalypse_Now", "Film"}, {"The_Secret_in_Their_Eyes", "Film"}, {"Nine_Queens", "Film"},
	{"Minecraft", "VideoGame"},
	{"Berlin", "City"}, {"Munich", "City"}, {"Vienna", "City"}, {"Philadelphia", "City"},
	{"Ottawa", "City"}, {"Sydney", "City"}, {"Bremen", "City"}, {"Bremerhaven", "City"},
	{"London", "City"}, {"Paris", "City"}, {"New_York_City", "City"}, {"Los_Angeles", "City"},
	{"Salt_Lake_City", "City"}, {"San_Francisco", "City"}, {"Delft", "City"},
	{"Santa_Clara", "City"}, {"Malaga", "City"}, {"Concord_California", "City"},
	{"Germany", "Country"}, {"Canada", "Country"}, {"Australia", "Country"},
	{"Austria", "Country"}, {"United_States", "Country"}, {"Netherlands", "Country"},
	{"Switzerland", "Country"}, {"France", "Country"}, {"Argentina", "Country"},
	{"Japan", "Country"},
	{"Weser", "River"}, {"Rhine", "River"}, {"Aare", "River"},
	{"BMW", "Company"}, {"Siemens", "Company"}, {"Allianz", "Company"},
	{"Intel", "Company"}, {"Suntory", "Company"}, {"Viking_Press", "Company"},
	{"Volkswagen", "Company"}, {"Audi", "Company"}, {"Toyota", "Company"},
	{"Farrar_Straus_and_Giroux", "Company"},
	{"BMW_3_Series", "Automobile"}, {"Volkswagen_Golf", "Automobile"},
	{"Audi_A4", "Automobile"}, {"Toyota_Corolla", "Automobile"},
	{"The_Prodigy", "Band"},
	{"On_the_Road", "Book"}, {"The_Dharma_Bums", "Book"}, {"Big_Sur_(novel)", "Book"},
	{"Miffy", "Comic"}, {"Captain_America", "Comic"},
	{"Philadelphia_76ers", "BasketballTeam"},
	{"Mount_Everest", "Mountain"},
	{"John_F_Kennedy", "Politician"}, {"Lyndon_B_Johnson", "Politician"},
	{"Angela_Merkel", "Politician"}, {"Barack_Obama", "Politician"},
	{"Sean_Parnell", "Politician"}, {"Matt_Mead", "Politician"},
	{"Margaret_Thatcher", "Politician"}, {"Klaus_Wowereit", "Politician"},
	{"Ted_Kennedy", "Politician"}, {"Robert_F_Kennedy", "Politician"},
	{"Wayne_Rooney", "SoccerPlayer"}, {"Theo_Walcott", "SoccerPlayer"},
	{"The_Secret_in_Their_Eyes", "ArgentineFilm"}, {"Nine_Queens", "ArgentineFilm"},
	{"Alaska", "USState"}, {"Wyoming", "USState"}, {"Pennsylvania", "USState"},
	// Everyone human is also a Person.
	{"Antonio_Banderas", "Person"}, {"Melanie_Griffith", "Person"},
	{"Tom_Hanks", "Person"}, {"Julia_Roberts", "Person"}, {"Richard_Gere", "Person"},
	{"Al_Pacino", "Person"}, {"Marlon_Brando", "Person"}, {"Salma_Hayek", "Person"},
	{"Anthony_Hopkins", "Person"}, {"Jonathan_Demme", "Person"},
	{"Robert_Rodriguez", "Person"}, {"Martin_Campbell", "Person"},
	{"Garry_Marshall", "Person"}, {"Francis_Ford_Coppola", "Person"},
	{"Markus_Persson", "Person"}, {"Gordon_Moore", "Person"}, {"Robert_Noyce", "Person"},
	{"John_F_Kennedy", "Person"}, {"Lyndon_B_Johnson", "Person"},
	{"Elizabeth_II", "Person"}, {"George_VI", "Person"}, {"Angela_Merkel", "Person"},
	{"Barack_Obama", "Person"}, {"Michelle_Obama", "Person"},
	{"Klaus_Wowereit", "Person"}, {"Sean_Parnell", "Person"}, {"Matt_Mead", "Person"},
	{"Margaret_Thatcher", "Person"}, {"Mark_Thatcher", "Person"}, {"Carol_Thatcher", "Person"},
	{"Juliana_of_the_Netherlands", "Person"}, {"Amanda_Palmer", "Person"},
	{"Neil_Gaiman", "Person"}, {"Michael_Jackson", "Person"}, {"Michael_Jordan", "Person"},
	{"Al_Capone", "Person"}, {"Jack_Kerouac", "Person"}, {"Dick_Bruna", "Person"},
	{"Joe_Simon", "Person"}, {"Jack_Kirby", "Person"},
	{"Arnold_Schoenberg", "Person"}, {"Marlene_Dietrich", "Person"},
	{"Max_Reinhardt", "Person"}, {"Emil_Fischer", "Person"},
	{"Joseph_P_Kennedy", "Person"}, {"Ted_Kennedy", "Person"},
	{"Robert_F_Kennedy", "Person"}, {"John_F_Kennedy_Jr", "Person"},
	{"Caroline_Kennedy", "Person"}, {"Aaron_McKie", "Person"},
	{"Allen_Iverson", "Person"}, {"Wayne_Rooney", "Person"}, {"Theo_Walcott", "Person"},
	{"Liam_Howlett", "Person"}, {"Keith_Flint", "Person"}, {"Maxim_Reality", "Person"},
	{"Suntory", "Company"},
}

var labelDecls = []labelDecl{
	{"Juliana_of_the_Netherlands", "Juliana"},
	{"Juliana_of_the_Netherlands", "Queen Juliana"},
	{"Elizabeth_II", "Queen Elizabeth II"},
	{"John_F_Kennedy", "John F. Kennedy"},
	{"John_F_Kennedy_Jr", "John F. Kennedy Jr."},
	{"Joseph_P_Kennedy", "Joseph P. Kennedy"},
	{"The_Secret_in_Their_Eyes", "The Secret in Their Eyes"},
	{"Secret_Intelligence_Service", "Secret Intelligence Service"},
	{"Concord_California", "Concord"},
	{"Malaga", "Málaga"},
	{"Maxim_Reality", "Maxim"},
	{"The_Prodigy", "Prodigy"},
	{"Volkswagen_Golf", "VW Golf"},
	{"Big_Sur_(novel)", "Big Sur"},
	{"Mountain_Time_Zone", "Mountain Time Zone"},
}

// BuildKB constructs the mini-DBpedia graph.
func BuildKB() (*store.Graph, error) {
	g := store.New()
	typ := rdf.NewIRI(rdf.RDFType)
	lbl := rdf.NewIRI(rdf.RDFSLabel)
	for _, f := range facts {
		t := rdf.T(r(f.s), rdf.Ontology(f.p), f.o)
		if err := g.Add(t); err != nil {
			return nil, fmt.Errorf("bench: fact %v: %w", t, err)
		}
	}
	for _, td := range typeDecls {
		if err := g.Add(rdf.T(r(td.entity), typ, rdf.Ontology(td.class))); err != nil {
			return nil, err
		}
	}
	// In sorted order: a map's would give the label literals different term
	// IDs on every build, and so a different file.
	classes := make([]string, 0, len(classLabels))
	for class := range classLabels {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		for _, l := range classLabels[class] {
			if err := g.Add(rdf.T(rdf.Ontology(class), lbl, lit(l))); err != nil {
				return nil, err
			}
		}
	}
	for _, ld := range labelDecls {
		if err := g.Add(rdf.T(r(ld.name), lbl, lit(ld.label))); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// MustKB builds the KB or panics (test/benchmark convenience).
func MustKB() *store.Graph {
	g, err := BuildKB()
	if err != nil {
		panic(err)
	}
	return g
}
