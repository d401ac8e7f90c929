package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"gqa/internal/dict"
	"gqa/internal/store"
)

// The parent's result set, whose harvest copied every held match out into
// a []Match with a path header per edge, and the parent's answer dedupe,
// kept verbatim (renamed parent*) as the reference the Matches block and
// selectAnswers are compared with. heldRow, minBuckets, hashAssignment and
// key36 are shared with match.go, unchanged since the parent.

// parentResultSet is the top-k state of one search: the matches whose score is at
// least the cut θ, the score of the k-th best of them (−∞ until k are held).
// θ only rises, and a match that falls below it is let go, so what is held
// at the end is the returned set: the k best matches, ties at the cut
// included.
//
// A held match is a row: its Assignment then its Via in ids and its edge
// paths in paths, each at the fixed stride of the search's query, and its
// score, orientation bits, hash and chain link in a pointer-free heldRow.
// Rows are deduplicated by assignment hash through int32 bucket heads
// chained through the rows. A row let go goes on a free list the next new
// match takes, so a search needs as many rows as it ever holds at once, and
// a pooled matcher keeps them for the next search (poolMaxHeld).
type parentResultSet struct {
	topK       int
	maxMatches int
	attempts   int64   // record calls (complete matches offered)
	theta      float64 // the cut θ: −∞ until topK matches are held
	refused    bool    // the maxHeldMatches cap turned a match away

	// The strides, taken from the first match a search holds: every match
	// of one query has one shape.
	na, idStride, ne int

	rows    []heldRow
	ids     []store.ID  // row r's Assignment, then its Via, at r*idStride
	paths   []dict.Path // row r's EdgePaths at r*ne
	heads   []int32     // bucket → first row of its chain, or -1; a power of two long
	results []int32     // the held rows, by descending score
	free    int32       // the first row let go, chained through next; -1 when none

	hashMask uint64 // all ones; a test narrows it to force collisions
	keys     []parentHarvestKey
}

// reset empties the set for a new search, keeping its arrays.
func (rs *parentResultSet) reset(topK, maxMatches int) {
	rs.topK, rs.maxMatches = topK, maxMatches
	rs.attempts, rs.theta, rs.refused = 0, math.Inf(-1), false
	rs.rows, rs.ids, rs.paths, rs.results = rs.rows[:0], rs.ids[:0], rs.paths[:0], rs.results[:0]
	rs.heads = grow(rs.heads[:0], minBuckets)
	for i := range rs.heads {
		rs.heads[i] = -1
	}
	rs.free, rs.hashMask = -1, ^uint64(0)
}

func (rs *parentResultSet) bucket(hash uint64) *int32 { return &rs.heads[hash&uint64(len(rs.heads)-1)] }

func (rs *parentResultSet) assignment(r int32) []store.ID {
	o := int(r) * rs.idStride
	return rs.ids[o : o+rs.na]
}

func (rs *parentResultSet) via(r int32) []store.ID {
	o := int(r) * rs.idStride
	return rs.ids[o+rs.na : o+rs.idStride]
}

func (rs *parentResultSet) edgePaths(r int32) []dict.Path {
	o := int(r) * rs.ne
	return rs.paths[o : o+rs.ne]
}

// record registers a discovered match, deduplicating by assignment and
// keeping the best-scoring justification per assignment. A match below θ
// is dropped at the door. A new assignment that arrives while maxHeldMatches
// are held is refused, which ends the search (MatchStats.Truncated =
// "matches"). match points at the search's live backtracking state, which
// mutates after record returns, so what is held is copied.
func (rs *parentResultSet) record(match *Match) {
	rs.attempts++
	if match.Score < rs.theta {
		return
	}
	hash := hashAssignment(match.Assignment) & rs.hashMask
	head := rs.bucket(hash)
	r := *head
	for r >= 0 && (rs.rows[r].hash != hash || !slices.Equal(rs.assignment(r), match.Assignment)) {
		r = rs.rows[r].next
	}
	if r >= 0 {
		if prev := &rs.rows[r]; match.Score > prev.score {
			// Same assignment, better justification: move the one entry up
			// to behind the matches already at its new score.
			i := sort.Search(len(rs.results), func(i int) bool { return rs.rows[rs.results[i]].score <= prev.score })
			for rs.results[i] != r {
				i++
			}
			prev.score, prev.rev = match.Score, match.EdgeRev
			copy(rs.via(r), match.Via)
			copy(rs.edgePaths(r), match.EdgePaths)
			pos := sort.Search(i, func(j int) bool { return rs.rows[rs.results[j]].score < prev.score })
			copy(rs.results[pos+1:i+1], rs.results[pos:i])
			rs.results[pos] = r
			rs.raiseCut()
		}
		return
	}
	if len(rs.results) >= rs.maxMatches {
		rs.refused = true
		return
	}
	if r = rs.free; r >= 0 {
		rs.free = rs.rows[r].next
		copy(rs.assignment(r), match.Assignment)
		copy(rs.via(r), match.Via)
		copy(rs.edgePaths(r), match.EdgePaths)
	} else {
		if len(rs.rows) == 0 {
			rs.na, rs.idStride, rs.ne = len(match.Assignment), len(match.Assignment)+len(match.Via), len(match.EdgePaths)
		}
		r = int32(len(rs.rows))
		rs.rows = append(rs.rows, heldRow{})
		rs.ids = append(append(rs.ids, match.Assignment...), match.Via...)
		rs.paths = append(rs.paths, match.EdgePaths...)
	}
	rs.rows[r] = heldRow{score: match.Score, rev: match.EdgeRev, hash: hash, next: *head}
	*head = r
	pos := sort.Search(len(rs.results), func(i int) bool { return rs.rows[rs.results[i]].score < match.Score })
	rs.results = append(rs.results, 0)
	copy(rs.results[pos+1:], rs.results[pos:])
	rs.results[pos] = r
	if len(rs.results) > len(rs.heads) {
		rs.rehash()
	}
	rs.raiseCut()
}

// rehash doubles the buckets and chains every held row anew.
func (rs *parentResultSet) rehash() {
	rs.heads = grow(rs.heads, 2*len(rs.heads))
	for i := range rs.heads {
		rs.heads[i] = -1
	}
	for _, r := range rs.results {
		head := rs.bucket(rs.rows[r].hash)
		rs.rows[r].next, *head = *head, r
	}
}

// raiseCut lifts θ to the score of the k-th best held match, if that is
// above it, and lets go of the matches now below: each is unlinked from its
// chain and its row goes on the free list. Called after results changed.
func (rs *parentResultSet) raiseCut() {
	if len(rs.results) < rs.topK {
		return
	}
	kth := rs.rows[rs.results[rs.topK-1]].score
	if kth <= rs.theta {
		return
	}
	rs.theta = kth
	n := len(rs.results)
	for ; rs.rows[rs.results[n-1]].score < kth; n-- {
		r := rs.results[n-1]
		link := rs.bucket(rs.rows[r].hash)
		for *link != r {
			link = &rs.rows[*link].next
		}
		*link = rs.rows[r].next
		rs.rows[r].next, rs.free = rs.free, r
	}
	rs.results = rs.results[:n]
}

// parentHarvestKey is what harvest sorts a held row by: its score, then the key36
// of its first ID; rows equal on both compare their whole key36 sequences.
type parentHarvestKey struct {
	score float64
	first uint64
	row   int32
}

// harvest returns the held matches — the top k, ties at the cut included —
// in canonical order: descending score, ties by ascending assignment key,
// so the order matches tied in score were found in does not show. The key
// is the assignment's IDs in base 36, each followed by '.' ("1.z.10.");
// it is compared as key36 numbers, one per ID. The matches are copied out
// of the rows into three arrays of exactly their size — the matches, their
// IDs and their paths — every slice capped at its length, so they outlive
// the set and the set can serve the next search.
func (rs *parentResultSet) harvest() []Match {
	n := len(rs.results)
	if n == 0 {
		return nil
	}
	keys := grow(rs.keys, n)
	for i, r := range rs.results {
		keys[i] = parentHarvestKey{score: rs.rows[r].score, first: key36(rs.ids[int(r)*rs.idStride]), row: r}
	}
	slices.SortFunc(keys, func(a, b parentHarvestKey) int {
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		if c := cmp.Compare(a.first, b.first); c != 0 {
			return c
		}
		x, y := rs.assignment(a.row), rs.assignment(b.row)
		for i := 1; i < len(x); i++ {
			if c := cmp.Compare(key36(x[i]), key36(y[i])); c != 0 {
				return c
			}
		}
		return 0
	})
	rs.keys = keys
	out := make([]Match, n)
	ids := make([]store.ID, n*rs.idStride)
	var paths []dict.Path
	if rs.ne > 0 {
		paths = make([]dict.Path, n*rs.ne)
	}
	for i, k := range keys {
		row := &rs.rows[k.row]
		a := ids[i*rs.idStride : (i+1)*rs.idStride : (i+1)*rs.idStride]
		copy(a, rs.ids[int(k.row)*rs.idStride:])
		p := paths[i*rs.ne : (i+1)*rs.ne : (i+1)*rs.ne]
		copy(p, rs.edgePaths(k.row))
		out[i] = Match{Assignment: a[:rs.na:rs.na], Via: a[rs.na:], EdgePaths: p, EdgeRev: row.rev, Score: row.score}
	}
	return out
}

// parentAnswers is the parent's evaluate from its top score on: the select
// vertex's bindings over the best-scoring matches, deduplicated by a map
// (res.Answers renamed answers).
func parentAnswers(matches []Match, sel int) (answers []store.ID) {
	top := 0
	for top < len(matches) && matches[top].Score == matches[0].Score {
		top++
	}
	seen := make(map[store.ID]struct{}, top)
	for _, m := range matches[:top] {
		u := m.Assignment[sel]
		if _, dup := seen[u]; dup {
			continue
		}
		seen[u] = struct{}{}
		answers = append(answers, u)
	}
	return answers
}

// HarvestShapes counts what the comparisons with the parent met.
type HarvestShapes struct {
	Harvests, Rows int
	// Runs counts the score runs of every harvest, TiedRuns those of two
	// rows or more, and TiedRows the rows in them; LongRuns those of 64
	// rows or more, past what a six-bit position could number.
	Runs, TiedRuns, TiedRows, LongRuns int
	// FirstTies counts the rows of a score run that share their first ID
	// with another row of the run: where the packed key falls back to the
	// rest of the assignment.
	FirstTies int
	// Wide counts the rows of a tied run holding an ID of seven base-36
	// digits (at least 36^6).
	Wide int
	// NoEdges counts the harvests of two rows or more of a query without
	// edges, and ManyRuns those of several score runs.
	NoEdges, ManyRuns int
	// Answers counts the bindings the answer keeps, and Deduped the ones it
	// drops as repeats: the select vertex's, or for a query without one
	// (the record streams') every vertex's. SortDeduped counts those of a
	// vertex past the first, which selectAnswers dedupes by sorting.
	Answers, Deduped, SortDeduped int
}

// compareHarvest says how a harvested block first differs from the
// parent's harvest of the same held matches ("" when it does not): each
// whole Match, read through At, and for every vertex as the select vertex
// the answers selectAnswers keeps against the parent's map loop. It counts
// what it met in shapes.
func compareHarvest(q *QueryGraph, got Matches, want []Match, shapes *HarvestShapes) string {
	if got.Len() != len(want) {
		return "the block holds " + strconv.Itoa(got.Len()) + " matches, the parent's harvest " + strconv.Itoa(len(want))
	}
	for i := range want {
		if m := got.At(i); !sameMatch(&m, &want[i]) {
			return "match " + strconv.Itoa(i) + ": " + m.key() + " where the parent has " + want[i].key()
		}
	}
	top := 0
	for top < len(want) && want[top].Score == want[0].Score {
		top++
	}
	for sel := range q.Vertices {
		g, w := selectAnswers(got, sel), parentAnswers(want, sel)
		if !slices.Equal(g, w) || (g == nil) != (w == nil) {
			return "select vertex " + strconv.Itoa(sel) + ": answers differ from the parent's"
		}
		if s := q.SelectVertex(); s < 0 || s == sel {
			shapes.Answers += len(w)
			shapes.Deduped += top - len(w)
			if sel > 0 {
				shapes.SortDeduped += top - len(w)
			}
		}
	}
	if len(want) == 0 {
		return ""
	}
	shapes.Harvests++
	shapes.Rows += len(want)
	runs := 0
	for lo := 0; lo < len(want); {
		hi := lo + 1
		for hi < len(want) && want[hi].Score == want[lo].Score {
			hi++
		}
		runs++
		if hi-lo >= 64 {
			shapes.LongRuns++
		}
		if hi-lo > 1 {
			shapes.TiedRuns++
			shapes.TiedRows += hi - lo
			for i := lo; i < hi; i++ {
				if (i > lo && want[i].Assignment[0] == want[i-1].Assignment[0]) ||
					(i+1 < hi && want[i].Assignment[0] == want[i+1].Assignment[0]) {
					shapes.FirstTies++
				}
				if slices.Max(want[i].Assignment) >= 2176782336 {
					shapes.Wide++
				}
			}
		}
		lo = hi
	}
	shapes.Runs += runs
	if runs > 1 {
		shapes.ManyRuns++
	}
	if len(q.Edges) == 0 && len(want) > 1 {
		shapes.NoEdges++
	}
	return ""
}

// compareStreamHarvest records s into a resultSet and into the parent's,
// and compares their harvests.
func compareStreamHarvest(s recordStream, shapes *HarvestShapes) string {
	rs := newResultSet(s.k, s.maxMatches, len(s.q.Vertices), len(s.q.Edges))
	if s.collide {
		rs.hashMask = 3
	}
	parent := new(parentResultSet)
	parent.reset(s.k, s.maxMatches)
	for i := range s.offers {
		rs.record(s.row(i), s.offers[i].EdgeRev, s.offers[i].Score)
		parent.record(&s.offers[i])
	}
	return compareHarvest(s.q, rs.harvest(s.q), parent.harvest(), shapes)
}

// tiedStream draws bytes for decodeStream: 100 to 200 offers of one score
// over three vertices, nearly all of them distinct assignments, so that
// the harvest is one run of about as many rows.
func tiedStream(rng *rand.Rand) []byte {
	ne := rng.Intn(3)
	data := []byte{byte(rng.Intn(256)), 1, byte(rng.Intn(256)), 2, byte(ne)}
	for range 100 + rng.Intn(100) {
		for range 3 {
			data = append(data, byte(rng.Intn(len(keyPool))))
		}
		for range 3 + ne {
			data = append(data, byte(rng.Intn(256)))
		}
		data = append(data, byte(4*rng.Intn(64)))
	}
	return data
}

// TestQuickHarvestMatchesParent feeds random record streams to the result
// set and to the parent's, and requires the block to hold the parent's
// harvest, match for match through At, and selectAnswers to keep the
// parent's answers for every vertex. One stream in five is a tiedStream.
// It fails unless the streams met a score run of two rows or more, one of
// 64 rows or more, rows of one run whose first IDs tie, a tied row holding
// an ID of seven base-36 digits, a query with no edges, a harvest of
// several score runs, and repeated bindings of the first vertex and of a
// later one.
func TestQuickHarvestMatchesParent(t *testing.T) {
	var shapes HarvestShapes
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := randomStream(rng)
		if rng.Intn(5) == 0 {
			data = tiedStream(rng)
		}
		if diff := compareStreamHarvest(decodeStream(data), &shapes); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if shapes.TiedRuns == 0 || shapes.LongRuns == 0 || shapes.FirstTies == 0 || shapes.Wide == 0 || shapes.NoEdges == 0 || shapes.ManyRuns == 0 ||
		shapes.Deduped == shapes.SortDeduped || shapes.SortDeduped == 0 {
		t.Errorf("the property missed a shape it is there for: %+v", shapes)
	}
	t.Logf("%+v", shapes)
}

// HarvestDiff runs the search of q over g on a matcher of its own and
// compares its harvest with the parent's harvest of the same held matches
// (recorded into the parent's set in the order they are held), counting
// what it met in shapes.
func HarvestDiff(g *store.Graph, q *QueryGraph, shapes *HarvestShapes) string {
	m := new(matcher)
	m.run(g, q, MatchOptions{})
	parent := new(parentResultSet)
	parent.reset(m.res.topK, m.res.maxMatches)
	for i := range m.res.results {
		held := m.res.heldMatch(q, i)
		parent.record(&held)
	}
	return compareHarvest(q, m.res.harvest(q), parent.harvest(), shapes)
}
