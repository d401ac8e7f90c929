package core_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/obs"
	"gqa/internal/store"
)

// TestSearchAllocs: a warm search allocates only what it returns. On the
// cinema KB's cast-of-director question a search takes its working memory
// from the matcher pool and allocates the three arrays its matches are
// copied into — the matches, their IDs, their paths — and nothing else.
func TestSearchAllocs(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("the race detector's sync.Pool drops what it is given at random")
	}
	kb := bench.NewCinemaKB()
	sys := core.NewSystem(kb.Graph, kb.Dict, core.Options{})
	res, err := sys.Answer(kb.Questions[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	if res.Query == nil || len(res.Matches) < 20 {
		t.Fatalf("%q: %d matches, want the cast-of-director template's tie", kb.Questions[0].Text, len(res.Matches))
	}
	search := func() { core.FindTopKMatches(kb.Graph, res.Query, core.MatchOptions{}) }
	search()
	// One allocation of slack: a collection during the runs empties the
	// pool, and the search that follows grows a matcher anew.
	const ceiling = 3 + 1
	allocs := testing.AllocsPerRun(100, search)
	t.Logf("%d matches, %v allocations a search", len(res.Matches), allocs)
	if allocs > ceiling {
		t.Errorf("a warm search allocates %v times, at most %d", allocs, ceiling)
	}
}

// TestSearchCountsItsWalks: a search adds the walks it made to
// gqa_dict_followpath_total once, on its way out, and the next search
// starts counting from zero: the same search twice moves the series by the
// same non-zero count.
func TestSearchCountsItsWalks(t *testing.T) {
	kb := bench.NewCinemaKB()
	sys := core.NewSystem(kb.Graph, kb.Dict, core.Options{})
	res, err := sys.Answer(kb.Questions[0].Text)
	if err != nil || res.Query == nil {
		t.Fatalf("%q: %v", kb.Questions[0].Text, err)
	}
	walks := obs.DefaultCounter("gqa_dict_followpath_total", "")
	var moved [2]int64
	for i := range moved {
		before := walks.Value()
		core.FindTopKMatches(kb.Graph, res.Query, core.MatchOptions{})
		moved[i] = walks.Value() - before
	}
	if moved[0] == 0 || moved[0] != moved[1] {
		t.Errorf("two runs of one search moved the walk count by %d and %d", moved[0], moved[1])
	}
}

// workloadSearch is one question's resolved Q^S over its graph.
type workloadSearch struct {
	name string
	g    *store.Graph
	q    *core.QueryGraph
	res  *core.Result
}

// workloadSearches answers every question of the four workloads and keeps
// those that reached the search.
func workloadSearches(t *testing.T) []workloadSearch {
	var out []workloadSearch
	for _, set := range questionSets(t) {
		sys := core.NewSystem(set.g, set.d, core.Options{})
		for _, q := range set.questions {
			res, err := sys.Answer(q.Text)
			if err != nil {
				t.Fatalf("%s: %q: %v", set.name, q.Text, err)
			}
			if res.Query != nil {
				out = append(out, workloadSearch{set.name + ": " + q.Text, set.g, res.Query, res})
			}
		}
	}
	return out
}

// TestWalksMatchReferenceOnWorkloads: on every question of qald, yago,
// nlscale and cinema, the matcher's walks of every candidate path, in both
// orientations, from every entity candidate, every instance of a class
// candidate and every vertex of a returned match, reach the parent's
// targets in the parent's order with the parent's nFwd.
func TestWalksMatchReferenceOnWorkloads(t *testing.T) {
	walks, both := 0, 0
	for _, s := range workloadSearches(t) {
		view := s.g.FrozenView()
		var starts []store.ID
		for _, v := range s.q.Vertices {
			for _, c := range v.Candidates {
				if !c.IsClass {
					starts = append(starts, c.ID)
					continue
				}
				for _, e := range view.InPred(c.ID, view.TypeID()) {
					starts = append(starts, e.To)
				}
			}
		}
		for _, m := range s.res.Matches {
			starts = append(starts, m.Assignment...)
		}
		slices.Sort(starts)
		n, b, diff := core.WalkDiff(view, s.q, slices.Compact(starts))
		if diff != "" {
			t.Fatalf("%s: %s", s.name, diff)
		}
		walks, both = walks+n, both+b
	}
	if both == 0 {
		t.Error("no walk reached a target in both orientations")
	}
	t.Logf("%d walks compared, %d reached a common target both ways", walks, both)
}

// TestConcurrentSearchesMatchSequential: two goroutines search the
// workloads' queries at once, one front to back and one back to front, so
// pooled matchers pass between queries of different shapes (vertex counts,
// edge counts, path lengths) in every order; every result must equal the
// sequential run's. Run under -race, it also holds the pool to one search
// per matcher at a time.
func TestConcurrentSearchesMatchSequential(t *testing.T) {
	searches := workloadSearches(t)
	type result struct {
		matches []core.Match
		stats   core.MatchStats
	}
	want := make([]result, len(searches))
	shapes := map[[2]int]bool{}
	for i, s := range searches {
		want[i].matches, want[i].stats = core.FindTopKMatches(s.g, s.q, core.MatchOptions{})
		shapes[[2]int{len(s.q.Vertices), len(s.q.Edges)}] = true
	}
	if len(shapes) < 3 {
		t.Fatalf("the workloads have %d query shapes, want several", len(shapes))
	}
	var wg sync.WaitGroup
	errs := make(chan string, 2)
	for _, backwards := range []bool{false, true} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				for j := range searches {
					i := j
					if backwards {
						i = len(searches) - 1 - j
					}
					matches, stats := core.FindTopKMatches(searches[i].g, searches[i].q, core.MatchOptions{})
					if !reflect.DeepEqual(matches, want[i].matches) || stats != want[i].stats {
						errs <- fmt.Sprintf("%s: round %d differs from the sequential run", searches[i].name, round)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	t.Logf("%d searches in %d shapes", len(searches), len(shapes))
}
