package store

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gqa/internal/rdf"
)

// A predicate-major scan walks the subjects and reads each one's out run
// (Snapshot.scanPred). A part used to carry the result as an index of its
// own, a predicate-major CSR that buildShardPart filled by a counting
// sort, whose groups the snapshot then merged across the parts; these
// tests keep that build as the reference both Match scans are held to,
// triple for triple and in order.

// scatterGroups is the parent's counting-sort scatter, verbatim but for
// reading the part's fields and returning the CSR it built: count the owned
// triples per predicate, turn the counts into group offsets, then scatter.
// The scatter walks subjects ascending and each span in (Pred, To) order,
// so every group fills in (S, O) order with no comparison sort.
func scatterGroups(p *shardPart) (predIDs []ID, predOff []uint32, predTriples []Spo) {
	n, shard, k, nLocal := p.nTerms, p.shard, p.k, len(p.roles)
	cursor := make([]uint32, n) // per predicate: triple count, then next free slot
	for _, e := range p.outEdges {
		cursor[e.Pred]++
	}
	predIDs, predOff = []ID{}, []uint32{0}
	for id, c := range cursor {
		if c > 0 {
			start := predOff[len(predOff)-1]
			predIDs = append(predIDs, ID(id))
			predOff = append(predOff, start+c)
			cursor[id] = start
		}
	}
	predTriples = make([]Spo, len(p.outEdges))
	for l := 0; l < nLocal; l++ {
		s := ID(shard + l*k)
		for _, e := range p.outEdges[p.outOff[l]:p.outOff[l+1]] {
			predTriples[cursor[e.Pred]] = Spo{S: s, P: e.Pred, O: e.To}
			cursor[e.Pred]++
		}
	}
	return predIDs, predOff, predTriples
}

// scatter is one part's reference CSR.
type scatter struct {
	ids     []ID
	off     []uint32
	triples []Spo
}

func scatterOf(p *shardPart) scatter {
	var sc scatter
	sc.ids, sc.off, sc.triples = scatterGroups(p)
	return sc
}

// group is the reference group of predicate pred: empty when no owned
// subject has a pred edge.
func (sc scatter) group(pred ID) []Spo {
	if i, ok := slices.BinarySearch(sc.ids, pred); ok {
		return sc.triples[sc.off[i]:sc.off[i+1]]
	}
	return nil
}

// refScan is the reference scan of predicate pred: the parts' groups
// together, in (S, O) order. Subjects partition by part, so no two groups
// share a subject and the order is the parts' merge.
func refScan(scs []scatter, pred ID) []Spo {
	var want []Spo
	for _, sc := range scs {
		want = append(want, sc.group(pred)...)
	}
	slices.SortFunc(want, func(a, b Spo) int { return cmp.Or(cmp.Compare(a.S, b.S), cmp.Compare(a.O, b.O)) })
	return want
}

// checkPredScans holds sn's predicate scans to the reference built from
// parts, the arrays sn reads locally or a loopback fleet serves it:
// Match(Any, p, Any) for every predicate, and for terms that label no
// edge, which read nothing, then Match(Any, Any, Any), the predicates'
// scans one after another in ascending predicate order.
func checkPredScans(sn *Snapshot, parts localParts) error {
	scs := make([]scatter, len(parts))
	var refIDs []ID
	for i, p := range parts {
		scs[i] = scatterOf(p)
		if !slices.Equal(p.predIDs, scs[i].ids) {
			return fmt.Errorf("K=%d part %d: predicate list %v, the reference %v", sn.k, i, p.predIDs, scs[i].ids)
		}
		refIDs = append(refIDs, scs[i].ids...)
	}
	slices.Sort(refIDs)
	if refIDs = slices.Compact(refIDs); !slices.Equal(sn.predIDs, refIDs) {
		return fmt.Errorf("K=%d: predicate list %v, the reference %v", sn.k, sn.predIDs, refIDs)
	}
	var all []Spo
	for _, pid := range sn.predIDs {
		want := refScan(scs, pid)
		all = append(all, want...)
		if got := collectScan(sn, pid); !slices.Equal(got, want) {
			return fmt.Errorf("K=%d: Match(Any, %d, Any) reads %d triples, the reference %d: not the same triples in the same order", sn.k, pid, len(got), len(want))
		}
	}
	for _, pid := range []ID{0, ID(sn.NumTerms() - 1), ID(sn.NumTerms())} {
		if !slices.Contains(sn.predIDs, pid) {
			if got := collectScan(sn, pid); len(got) != 0 {
				return fmt.Errorf("K=%d: Match(Any, %d, Any) of a term no edge labels reads %d triples", sn.k, pid, len(got))
			}
		}
	}
	if got := collectScan(sn, Any); !slices.Equal(got, all) {
		return fmt.Errorf("K=%d: Match(Any, Any, Any) reads %d triples, the reference %d: not the same triples in the same order", sn.k, len(got), len(all))
	}
	return nil
}

// collectScan is what Match(Any, p, Any) reads, in its order.
func collectScan(sn *Snapshot, p ID) []Spo {
	var got []Spo
	sn.Match(Any, p, Any, func(spo Spo) bool { got = append(got, spo); return true })
	return got
}

// checkLocalScans holds a local snapshot's scans to the reference over its
// own parts.
func checkLocalScans(sn *Snapshot) error { return checkPredScans(sn, sn.parts) }

// checkRemoteScans serves g's k-part freeze from loopback shards and holds
// a coordinator's scans to the reference over the parts the shards serve.
// A scan of a term that labels no edge sends no frame: the predicate list
// answers it.
func checkRemoteScans(t *testing.T, g *Graph, k int) {
	t.Helper()
	addrs, _ := startLoopbackShards(t, g, k)
	rss, err := DialShards(addrs, g.Terms(), RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rss.Close()
	if err := checkPredScans(rss, g.Freeze().parts); err != nil {
		t.Fatalf("over loopback: %v", err)
	}
	bv := rss.BindRequest(nil, nil)
	if got, calls := collectScan(bv, ID(rss.NumTerms())), rpcOf(bv).req.calls.Load(); len(got) != 0 || calls != 0 {
		t.Fatalf("K=%d: a scan of a term no edge labels read %d triples in %d frames, want none in none", k, len(got), calls)
	}
}

// TestPredGroupsMatchScatter: on random rich graphs at K ∈ {1, 2, 3, 4, 8},
// after a freeze and after writes that follow it (one of them an edge out
// of a new, last term), both Match scans read
// what the reference scatter built, and so does a coordinator over a
// loopback set at every K above 1.
func TestPredGroupsMatchScatter(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, k := range []int{1, 2, 3, 4, 8} {
			g := randomRichGraph(rand.New(rand.NewSource(seed)))
			g.SetShards(k)
			if err := checkLocalScans(g.Freeze()); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			spos := collectScan(g.Freeze(), Any)
			for i := 0; i < len(spos); i += 5 {
				g.Remove(spos[i].S, spos[i].P, spos[i].O)
			}
			for i := 1; i+1 < len(spos); i += 7 {
				g.AddSPO(spos[i+1].S, spos[i].P, spos[i-1].O)
			}
			// The last term is a subject too, so a walk that stops short
			// of it reads less.
			g.AddSPO(g.Intern(rdf.Resource("last")), spos[0].P, spos[0].O)
			if err := checkLocalScans(g.Freeze()); err != nil {
				t.Fatalf("seed %d, after writes: %v", seed, err)
			}
			if k > 1 {
				checkRemoteScans(t, g, k)
			}
		}
	}
}

// TestPredScanAllocs: a local predicate scan is a walk over the frozen
// arrays and allocates nothing, at K = 1 and across four parts: no group
// is built per part and none is merged. Match(Any, Any, Any), one such
// walk per predicate, allocates nothing either.
func TestPredScanAllocs(t *testing.T) {
	for _, k := range []int{1, 4} {
		g := randomRichGraph(rand.New(rand.NewSource(7)))
		g.SetShards(k)
		sn := g.Freeze()
		p := sn.predIDs[0]
		for _, scan := range []ID{p, Any} {
			n := 0
			f := func() {
				n = 0
				sn.Match(Any, scan, Any, func(Spo) bool { n++; return true })
			}
			if a := testing.AllocsPerRun(100, f); a != 0 {
				t.Errorf("K=%d: Match(Any, %d, Any) allocates %v times a scan, want 0", k, scan, a)
			}
			if n == 0 {
				t.Fatalf("K=%d: Match(Any, %d, Any) read nothing", k, scan)
			}
		}
	}
}
