package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"gqa/internal/dict"
	"gqa/internal/store"
)

// The parent's result set, kept verbatim (renamed ref*) as the reference
// the slab-backed resultSet is compared with: string-keyed dedup, one heap
// copy per held match, and a harvest that sorts on base-36 key strings.
// Match.key is the key those strings are.

func (m *Match) key() string {
	var b strings.Builder
	for _, u := range m.Assignment {
		b.WriteString(strconv.FormatUint(uint64(u), 36))
		b.WriteByte('.')
	}
	return b.String()
}

// refResultSet is the top-k state of one search: the matches whose score is at
// least the cut θ, the score of the k-th best of them (−∞ until k are held).
// θ only rises, and a match that falls below it is let go, so what is held
// at the end is the returned set: the k best matches, ties at the cut
// included.
type refResultSet struct {
	topK       int
	maxMatches int
	attempts   int64   // record calls (complete matches offered)
	theta      float64 // the cut θ: −∞ until topK matches are held
	refused    bool    // the MaxMatches cap turned a match away

	found   map[string]*Match // by refAssignmentKey
	results []*Match          // maintained sorted by descending score
}

func newRefResultSet(topK, maxMatches int) *refResultSet {
	return &refResultSet{topK: topK, maxMatches: maxMatches, theta: math.Inf(-1), found: make(map[string]*Match)}
}

// refAssignmentKey appends an assignment's fixed-width binary form to buf:
// the key of found. A lookup indexes the map with string(key) in place,
// which does not allocate; only holding a new match copies it.
func refAssignmentKey(buf []byte, assignment []store.ID) []byte {
	for _, u := range assignment {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
	}
	return buf
}

// record registers a discovered match, deduplicating by assignment and
// keeping the best-scoring justification per assignment. A match below θ
// is dropped at the door. A new assignment that arrives while MaxMatches
// are held is refused, which ends the search (MatchStats.Truncated =
// "matches").
func (rs *refResultSet) record(match *Match) {
	rs.attempts++
	if match.Score < rs.theta {
		return
	}
	var kb [64]byte
	key := refAssignmentKey(kb[:0], match.Assignment)
	if prev, ok := rs.found[string(key)]; ok {
		if match.Score > prev.Score {
			// Same assignment, better justification: move the one entry up
			// to behind the matches already at its new score. The slices
			// must be copied, not aliased: match points at the search's
			// live backtracking state, which mutates after record returns.
			i := sort.Search(len(rs.results), func(i int) bool { return rs.results[i].Score <= prev.Score })
			for rs.results[i] != prev {
				i++
			}
			prev.Score = match.Score
			prev.Via = append(prev.Via[:0], match.Via...)
			prev.EdgePaths = append(prev.EdgePaths[:0], match.EdgePaths...)
			prev.EdgeRev = match.EdgeRev
			pos := sort.Search(i, func(j int) bool { return rs.results[j].Score < prev.Score })
			copy(rs.results[pos+1:i+1], rs.results[pos:i])
			rs.results[pos] = prev
			rs.raiseCut()
		}
		return
	}
	if len(rs.results) >= rs.maxMatches {
		rs.refused = true
		return
	}
	cp := *match
	cp.Assignment = append([]store.ID(nil), match.Assignment...)
	cp.Via = append([]store.ID(nil), match.Via...)
	cp.EdgePaths = append([]dict.Path(nil), match.EdgePaths...)
	rs.found[string(key)] = &cp
	pos := sort.Search(len(rs.results), func(i int) bool { return rs.results[i].Score < cp.Score })
	rs.results = append(rs.results, nil)
	copy(rs.results[pos+1:], rs.results[pos:])
	rs.results[pos] = &cp
	rs.raiseCut()
}

// raiseCut lifts θ to the score of the k-th best held match, if that is
// above it, and lets go of the matches now below. Called after results
// changed.
func (rs *refResultSet) raiseCut() {
	if len(rs.results) >= rs.topK {
		if kth := rs.results[rs.topK-1].Score; kth > rs.theta {
			rs.theta = kth
			n := len(rs.results)
			var kb [64]byte
			for ; rs.results[n-1].Score < kth; n-- {
				delete(rs.found, string(refAssignmentKey(kb[:0], rs.results[n-1].Assignment)))
				rs.results[n-1] = nil
			}
			rs.results = rs.results[:n]
		}
	}
}

// harvest returns the held matches — the top k, ties at the cut included —
// in canonical order: descending score, ties by ascending assignment key,
// so the order matches tied in score were found in does not show.
func (rs *refResultSet) harvest() []Match {
	var out []Match
	for _, r := range rs.results {
		out = append(out, *r)
	}
	keys := make([]string, len(out))
	for i := range out {
		keys[i] = out[i].key()
	}
	sort.Sort(&refCanonicalOrder{matches: out, keys: keys})
	return out
}

// refCanonicalOrder sorts matches by descending score, ties by ascending
// assignment key (keys are unique: found dedups by assignment).
type refCanonicalOrder struct {
	matches []Match
	keys    []string
}

func (s *refCanonicalOrder) Len() int { return len(s.matches) }
func (s *refCanonicalOrder) Less(i, j int) bool {
	if s.matches[i].Score != s.matches[j].Score {
		return s.matches[i].Score > s.matches[j].Score
	}
	return s.keys[i] < s.keys[j]
}
func (s *refCanonicalOrder) Swap(i, j int) {
	s.matches[i], s.matches[j] = s.matches[j], s.matches[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// keyPool is the ID pool assignments are drawn from: the ends of each
// base-36 digit count (35/36, 1295/1296, 46655/46656, 36^6 - 1/36^6), 1
// and 2 around 36–71 ("10"–"1z"), which as strings sort between them and
// as numbers after both, and the largest ID, whose seven digits are the
// most key36 pads to.
var keyPool = []store.ID{0, 1, 2, 9, 10, 35, 36, 37, 50, 71, 72, 1295, 1296, 1297, 46655, 46656,
	2176782335, 2176782336, 2176782337, math.MaxUint32}

var pathPool = []dict.Path{nil, {{Pred: 7, Forward: true}}, {{Pred: 7}, {Pred: 8, Forward: true}}}

// recordStream is one result set's input: its k, its MaxMatches, whether
// its hash is narrowed to two bits (newCollidingResultSet), and the offers
// in the order they are recorded, each with the index in pathPool of its
// every edge's path. Every offer has the one shape q, the stream's query,
// gives it: nv vertices, and ne edges whose candidate paths are pathPool.
type recordStream struct {
	k, maxMatches int
	collide       bool
	q             *QueryGraph
	offers        []Match
	cands         [][]store.ID
}

// row is offer i as the search state lays it out (searchState.row).
func (s *recordStream) row(i int) []store.ID {
	m := &s.offers[i]
	return append(append(append([]store.ID(nil), m.Assignment...), m.Via...), s.cands[i]...)
}

// streamQuery is a query of nv vertices and ne edges whose every edge has
// pathPool as its candidate paths.
func streamQuery(nv, ne int) *QueryGraph {
	q := &QueryGraph{Vertices: make([]Vertex, nv)}
	for range ne {
		e := Edge{}
		for _, p := range pathPool {
			e.Candidates = append(e.Candidates, EdgeCandidate{Path: p, Score: 1})
		}
		q.Edges = append(q.Edges, e)
	}
	return q
}

// decodeStream reads a stream from bytes: a header of k, cap, collision and
// shape, then one offer per nv+nv+ne+2 bytes.
func decodeStream(data []byte) recordStream {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	s := recordStream{k: 1 + int(next()%5), maxMatches: 1000}
	if b := next(); b%4 == 0 {
		s.maxMatches = 1 + int(b/4%6)
	}
	s.collide = next()%2 == 0
	nv, ne := 1+int(next()%3), int(next()%3)
	s.q = streamQuery(nv, ne)
	for len(data) > 0 {
		m := Match{Assignment: make([]store.ID, nv), Via: make([]store.ID, nv)}
		for i := range m.Assignment {
			m.Assignment[i] = keyPool[int(next())%len(keyPool)]
		}
		for i := range m.Via {
			m.Via[i] = store.ID(next())
		}
		cands := make([]store.ID, ne)
		for ei := range cands {
			cands[ei] = store.ID(int(next()) % len(pathPool))
			m.EdgePaths = append(m.EdgePaths, pathPool[cands[ei]])
		}
		b := next()
		m.Score, m.EdgeRev = -float64(1+b%4), uint64(b/4%4)
		s.offers, s.cands = append(s.offers, m), append(s.cands, cands)
	}
	return s
}

// randomStream draws bytes for decodeStream whose assignments come from a
// few pool IDs per vertex, so that repeats, ties and evictions are common.
func randomStream(rng *rand.Rand) []byte {
	nv, ne := 1+rng.Intn(3), rng.Intn(3)
	data := []byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(nv - 1), byte(ne)}
	pick := make([][]byte, nv)
	for i := range pick {
		for range 2 + rng.Intn(3) {
			pick[i] = append(pick[i], byte(rng.Intn(len(keyPool))))
		}
	}
	for range 5 + rng.Intn(80) {
		for i := range nv {
			data = append(data, pick[i][rng.Intn(len(pick[i]))])
		}
		for range nv + ne + 1 {
			data = append(data, byte(rng.Intn(256)))
		}
	}
	return data
}

// heldMatch is the i-th held match of a search of q, read off its row.
func (rs *resultSet) heldMatch(q *QueryGraph, i int) Match {
	r := rs.results[i]
	row := rs.row(r)
	m := Match{Assignment: row[:rs.na], Via: row[rs.na : 2*rs.na], EdgeRev: rs.rows[r].rev, Score: rs.rows[r].score}
	for ei, ci := range row[2*rs.na:] {
		m.EdgePaths = append(m.EdgePaths, q.Edges[ei].Candidates[ci].Path)
	}
	return m
}

func sameMatch(a, b *Match) bool {
	return slices.Equal(a.Assignment, b.Assignment) && slices.Equal(a.Via, b.Via) &&
		slices.EqualFunc(a.EdgePaths, b.EdgePaths, func(p, q dict.Path) bool { return slices.Equal(p, q) }) &&
		a.EdgeRev == b.EdgeRev && a.Score == b.Score
}

// streamShapes counts what a stream met that the comparison is there for.
type streamShapes struct {
	better, worse, evicted, refused, collided int
	// Tied matches whose first differing IDs have 1 and 2 digits, 2 and 3,
	// and where one ID's digits are a prefix of the other's.
	digits12, digits23, prefix int
}

// compareResultSet records s into a resultSet and the reference, and says
// how they first differ ("" when they never do): after every record the
// held matches in order, θ, the attempt count, the refusal, and that every
// held match is on its hash's chain exactly once; at the end the harvest,
// read through Matches.At.
func compareResultSet(s recordStream, shapes *streamShapes) string {
	nv, ne := len(s.q.Vertices), len(s.q.Edges)
	rs, ref := newResultSet(s.k, s.maxMatches, nv, ne), newRefResultSet(s.k, s.maxMatches)
	if s.collide {
		rs = newCollidingResultSet(s.k, s.maxMatches, nv, ne)
	}
	for n, offer := range s.offers {
		before := map[string]bool{}
		for _, r := range ref.results {
			before[r.key()] = true
		}
		if prev, ok := ref.found[string(refAssignmentKey(nil, offer.Assignment))]; ok {
			if offer.Score > prev.Score {
				shapes.better++
			} else if offer.Score < prev.Score {
				shapes.worse++
			}
		} else if offer.Score >= rs.theta {
			hash := hashAssignment(offer.Assignment) & rs.hashMask
			for r := *rs.bucket(hash); r >= 0; r = rs.rows[r].next {
				if rs.rows[r].hash == hash {
					shapes.collided++
				}
			}
		}
		rs.record(s.row(n), offer.EdgeRev, offer.Score)
		ref.record(&offer)
		for _, r := range ref.results {
			delete(before, r.key())
		}
		if len(before) > 0 && len(ref.results) > 0 {
			shapes.evicted++
		}
		if len(rs.results) != len(ref.results) || rs.theta != ref.theta || rs.attempts != ref.attempts || rs.refused != ref.refused {
			return "offer " + strconv.Itoa(n) + ": held/θ/attempts/refused differ"
		}
		for i := range ref.results {
			if held := rs.heldMatch(s.q, i); !sameMatch(&held, ref.results[i]) {
				return "offer " + strconv.Itoa(n) + ": held match " + strconv.Itoa(i) + " differs"
			}
		}
		chained := 0
		for b, r := range rs.heads {
			for ; r >= 0; r = rs.rows[r].next {
				if rs.bucket(rs.rows[r].hash) != &rs.heads[b] || !slices.Contains(rs.results, r) {
					return "offer " + strconv.Itoa(n) + ": a chain holds a match that is not held, or is in another's bucket"
				}
				chained++
			}
		}
		if chained != len(rs.results) {
			return "offer " + strconv.Itoa(n) + ": " + strconv.Itoa(chained) + " chained, " + strconv.Itoa(len(rs.results)) + " held"
		}
	}
	if ref.refused {
		shapes.refused++
	}
	got, want := rs.harvest(s.q), ref.harvest()
	if got.Len() != len(want) {
		return "harvest lengths differ"
	}
	for i := range want {
		if m := got.At(i); !sameMatch(&m, &want[i]) {
			return "harvest " + strconv.Itoa(i) + ": " + m.key() + " where the reference has " + want[i].key()
		}
	}
	for i := range want {
		for j := range i {
			if want[i].Score != want[j].Score {
				continue
			}
			a, b := want[i].Assignment, want[j].Assignment
			d := 0
			for a[d] == b[d] {
				d++
			}
			x, y := strconv.FormatUint(uint64(a[d]), 36), strconv.FormatUint(uint64(b[d]), 36)
			switch {
			case min(len(x), len(y)) == 1 && max(len(x), len(y)) == 2:
				shapes.digits12++
			case min(len(x), len(y)) == 2 && max(len(x), len(y)) == 3:
				shapes.digits23++
			}
			if strings.HasPrefix(x, y) || strings.HasPrefix(y, x) {
				shapes.prefix++
			}
		}
	}
	return ""
}

// TestQuickResultSetMatchesReference feeds random record streams to the
// result set and to the parent's, and requires the same held matches, θ,
// refusal and harvest order throughout. It fails unless the streams met a
// repeat with a better and with a worse score, an eviction by raiseCut, a
// MaxMatches refusal, a hash collision, and ties across the 1/2 and 2/3
// digit boundaries and between an ID and its two-digit extension.
func TestQuickResultSetMatchesReference(t *testing.T) {
	var shapes streamShapes
	prop := func(seed int64) bool {
		if diff := compareResultSet(decodeStream(randomStream(rand.New(rand.NewSource(seed)))), &shapes); diff != "" {
			t.Logf("seed %d: %s", seed, diff)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if shapes.better == 0 || shapes.worse == 0 || shapes.evicted == 0 || shapes.refused == 0 || shapes.collided == 0 ||
		shapes.digits12 == 0 || shapes.digits23 == 0 || shapes.prefix == 0 {
		t.Errorf("the property missed a shape it is there for: %+v", shapes)
	}
	t.Logf("%+v", shapes)
}

// FuzzResultSet is the same comparison over fuzzed record streams, and
// the harvested block's against the parent's harvest through At
// (compareStreamHarvest); four of its seeds are tiedStreams.
func FuzzResultSet(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 16 {
		f.Add(randomStream(rng))
	}
	for range 4 {
		f.Add(tiedStream(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeStream(data)
		if diff := compareResultSet(s, &streamShapes{}); diff != "" {
			t.Fatal(diff)
		}
		if diff := compareStreamHarvest(s, &HarvestShapes{}); diff != "" {
			t.Fatal("against the parent's harvest: " + diff)
		}
	})
}

// TestKey36IsKeyStringOrder: assignments compared as key36 numbers order as
// their base-36 key strings do, on every pair of IDs around the digit-count
// boundaries and on random pairs of random lengths.
func TestKey36IsKeyStringOrder(t *testing.T) {
	var edges []store.ID
	for p := uint64(1); p <= math.MaxUint32; p *= 36 {
		for _, v := range []uint64{p - 1, p, p + 1, 2*p - 1, 2 * p} {
			if v <= math.MaxUint32 {
				edges = append(edges, store.ID(v))
			}
		}
	}
	edges = append(edges, math.MaxUint32)
	keys := func(a []store.ID) []uint64 {
		out := make([]uint64, len(a))
		for i, u := range a {
			out[i] = key36(u)
		}
		return out
	}
	check := func(a, b []store.ID) {
		t.Helper()
		ka, kb := (&Match{Assignment: a}).key(), (&Match{Assignment: b}).key()
		if got, want := slices.Compare(keys(a), keys(b)), strings.Compare(ka, kb); got != want {
			t.Fatalf("%v and %v compare %d as key36 numbers, their keys %q and %q compare %d", a, b, got, ka, kb, want)
		}
	}
	for _, x := range edges {
		for _, y := range edges {
			check([]store.ID{x}, []store.ID{y})
			check([]store.ID{7, x, 3}, []store.ID{7, y})
		}
	}
	rng := rand.New(rand.NewSource(1))
	id := func() store.ID {
		return store.ID(rng.Uint32() >> rng.Intn(32))
	}
	for range 200_000 {
		a, b := make([]store.ID, 1+rng.Intn(3)), make([]store.ID, 1+rng.Intn(3))
		for i := range a {
			a[i] = id()
		}
		for i := range b {
			b[i] = id()
			if i < len(a) && rng.Intn(2) == 0 {
				b[i] = a[i]
			}
		}
		check(a, b)
	}
}

// TestHarvestedMatchesDoNotAlias: a search's block shares no array with
// another search's block or with the matcher the pool keeps, so the next
// search, over another query, changes no match of the last; and every
// slice At hands out is capped at its length, so appending to one slice of
// one match moves no other slice of any match.
func TestHarvestedMatchesDoNotAlias(t *testing.T) {
	g, q, _ := fanQuery([]float64{0.8, 0.8}, []fanPath{{"likes", 1, []int{3, 2}}})
	matches, _ := FindTopKMatches(g, q, MatchOptions{TopK: 3})
	if matches.Len() < 2 {
		t.Fatalf("got %d matches, want several", matches.Len())
	}
	clone := func() []Match {
		out := make([]Match, matches.Len())
		for i, m := range matches.All() {
			out[i] = Match{Assignment: slices.Clone(m.Assignment), Via: slices.Clone(m.Via),
				EdgePaths: slices.Clone(m.EdgePaths), EdgeRev: m.EdgeRev, Score: m.Score}
		}
		return out
	}
	before := clone()
	g2, q2, _ := fanQuery([]float64{0.9, 0.7, 0.6}, []fanPath{{"likes", 0.5, []int{1, 2, 3}}, {"knows", 0.9, []int{2, 2, 1}}})
	other, _ := FindTopKMatches(g2, q2, MatchOptions{TopK: 5})
	if other.Len() == 0 {
		t.Fatal("the second search found nothing")
	}
	m := matcherPool.Get().(*matcher)
	defer matcherPool.Put(m)
	arrays := []arraySpan{
		span("the first block's IDs", matches.ids), span("the first block's rows", matches.rows),
		span("the second block's IDs", other.ids), span("the second block's rows", other.rows),
		span("the pooled set's IDs", m.res.ids), span("the pooled set's rows", m.res.rows),
		span("the pooled set's keys", m.res.keys), span("the pooled set's results", m.res.results),
		span("the pooled state's row", m.st.row),
	}
	for i, x := range arrays {
		for _, y := range arrays[:i] {
			if x.size > 0 && y.size > 0 && x.p < y.p+y.size && y.p < x.p+x.size {
				t.Fatalf("%s and %s share an array", x.name, y.name)
			}
		}
	}
	for i := range other.Len() {
		for j := range other.Assignment(i) {
			other.Assignment(i)[j] = 99
		}
	}
	for i, want := range before {
		if got := matches.At(i); !sameMatch(&got, &want) {
			t.Fatalf("another search changed match %d", i)
		}
	}
	all := matches.All()
	for i, m := range all {
		if cap(m.Assignment) != len(m.Assignment) || cap(m.Via) != len(m.Via) || cap(m.EdgePaths) != len(m.EdgePaths) {
			t.Fatalf("match %d: caps %d/%d/%d for lengths %d/%d/%d", i, cap(m.Assignment), cap(m.Via), cap(m.EdgePaths),
				len(m.Assignment), len(m.Via), len(m.EdgePaths))
		}
	}
	for i := range all {
		_ = append(all[i].Assignment, 99)
		_ = append(all[i].Via, 99)
		_ = append(all[i].EdgePaths, dict.Path{{Pred: 99}})
		for j := range before {
			if got := matches.At(j); !sameMatch(&got, &before[j]) {
				t.Fatalf("appending to match %d changed match %d", i, j)
			}
		}
	}
}

// arraySpan is a slice's backing array: its address and size in bytes.
type arraySpan struct {
	name    string
	p, size uintptr
}

func span[T any](name string, s []T) arraySpan {
	var zero T
	return arraySpan{name, uintptr(unsafe.Pointer(unsafe.SliceData(s))), uintptr(cap(s)) * unsafe.Sizeof(zero)}
}

// TestResultSetHoldingFewIsCheap: a search that holds one match allocates
// for one, not for the 96 a tied template holds — the slabs start small.
func TestResultSetHoldingFewIsCheap(t *testing.T) {
	offer := Match{Assignment: []store.ID{1, 2, 3}, Via: []store.ID{4, 5, 6}, EdgePaths: []dict.Path{nil, nil}, Score: -1}
	q := streamQuery(3, 2)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		rs := newResultSet(10, 10000, 3, 2)
		rs.offer(&offer, 0, 0)
		if rs.harvest(q).Len() != 1 {
			t.Fatal("the match was not held")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 4096 {
		t.Errorf("holding one match allocates %d bytes", perRun)
	}
}
