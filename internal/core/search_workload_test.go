package core_test

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/obs"
	"gqa/internal/store"
)

// TestSearchAllocs: a warm search allocates only what it returns. On the
// cinema KB's cast-of-director question a search takes its working memory
// from the matcher pool and allocates the two arrays of the block its
// matches are copied into — their IDs and candidate indices, their scores
// and orientation bits — and nothing else, at most 16 bytes an ID and 32
// a match of the block's own size.
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
	n := res.Matches.Len()
	if res.Query == nil || n < 20 {
		t.Fatalf("%q: %d matches, want the cast-of-director template's tie", kb.Questions[0].Text, n)
	}
	search := func() { core.FindTopKMatches(kb.Graph, res.Query, core.MatchOptions{}) }
	search()
	// One allocation of slack: a collection during the runs empties the
	// pool, and the search that follows grows a matcher anew.
	const ceiling = 2 + 1
	allocs := testing.AllocsPerRun(100, search)
	// The block is n rows of 2 IDs a vertex and one index an edge (4 bytes
	// each) and n scores and orientation words (16 bytes each).
	stride := 2*len(res.Query.Vertices) + len(res.Query.Edges)
	block := n * (4*stride + 16)
	bytes := bytesPerRun(100, search)
	t.Logf("%d matches, %v allocations and %d bytes a search (the block is %d bytes)", n, allocs, bytes, block)
	if allocs > ceiling {
		t.Errorf("a warm search allocates %v times, at most %d", allocs, ceiling)
	}
	if bytes > uint64(block+block/4) {
		t.Errorf("a warm search allocates %d bytes, more than its %d-byte block and a quarter", bytes, block)
	}
}

// bytesPerRun is what one call of f allocates, averaged over runs calls
// on one P after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
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
		for i := range s.res.Matches.Len() {
			starts = append(starts, s.res.Matches.Assignment(i)...)
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
		matches core.Matches
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

// TestHarvestMatchesParentOnWorkloads: on every question of qald, yago,
// nlscale and cinema, the block a search harvests holds the parent's
// harvest of the same held matches, each whole Match equal through At, and
// the answer keeps the parent's bindings for every select vertex. It logs
// what each workload met: harvests, rows, score runs, rows in first-ID
// ties, and bindings the answer dedupe dropped.
func TestHarvestMatchesParentOnWorkloads(t *testing.T) {
	var all core.HarvestShapes
	sets := map[string]*core.HarvestShapes{}
	var names []string
	for _, s := range workloadSearches(t) {
		set := strings.SplitN(s.name, ":", 2)[0]
		if sets[set] == nil {
			sets[set] = new(core.HarvestShapes)
			names = append(names, set)
		}
		if diff := core.HarvestDiff(s.g, s.q, sets[set]); diff != "" {
			t.Fatalf("%s: %s", s.name, diff)
		}
	}
	for _, name := range names {
		sh := sets[name]
		t.Logf("%s: %d harvests, %d rows, %d score runs (%d of several rows, %d rows), %d rows in first-ID ties, %d answers kept, %d deduped",
			name, sh.Harvests, sh.Rows, sh.Runs, sh.TiedRuns, sh.TiedRows, sh.FirstTies, sh.Answers, sh.Deduped)
		all.TiedRuns += sh.TiedRuns
		all.FirstTies += sh.FirstTies
		all.Deduped += sh.Deduped
	}
	if all.TiedRuns == 0 || all.FirstTies == 0 || all.Deduped == 0 {
		t.Errorf("the workloads met no tied run, no first-ID tie or no repeated binding: %+v", all)
	}
}

// TestResolvedSPARQLMatchesReferenceOnWorkloads: every top-k match of
// every question of the four workloads — k = 10, so not only the best
// one an answer carries — renders, with the aggregation extension on, to
// the parent's text (or fails with its error).
func TestResolvedSPARQLMatchesReferenceOnWorkloads(t *testing.T) {
	rendered := 0
	for _, set := range questionSets(t) {
		sys := core.NewSystem(set.g, set.d, core.Options{TopK: 10, EnableAggregation: true})
		for _, q := range set.questions {
			res, err := sys.Answer(q.Text)
			if err != nil {
				t.Fatalf("%s: %q: %v", set.name, q.Text, err)
			}
			for i := range res.Matches.Len() {
				if d := core.SPARQLDiff(set.g, res.Matches, i); d != "" {
					t.Fatalf("%s: %q: %s", set.name, q.Text, d)
				}
				rendered++
			}
		}
	}
	if rendered < 500 {
		t.Fatalf("only %d matches rendered", rendered)
	}
	t.Logf("%d matches rendered", rendered)
}
