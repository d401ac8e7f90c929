package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// Predicate-major scans walk the out spans (localParts.predGroups). A part
// used to carry the result as an index of its own, a predicate-major CSR
// that buildShardPart filled by a counting sort; these tests keep that
// build as the reference the walk is held to, byte for byte.

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

// checkPredGroups holds a local snapshot's predicate scans to the
// reference: for every part, its predicate list, each predicate's group as
// the part reads it, and the bytes the part's shard server answers a group
// read with; across the parts, Match(Any, p, Any) for every predicate and
// Match(Any, Any, Any). Probes of terms that label no edge read empty.
func checkPredGroups(sn *Snapshot) error {
	scs := make([]scatter, sn.k)
	for i, p := range sn.parts {
		scs[i] = scatterOf(p)
	}
	var all []Spo
	for _, pid := range sn.predIDs {
		refs := make([][]Spo, 0, sn.k)
		for _, sc := range scs {
			if g := sc.group(pid); len(g) > 0 {
				refs = append(refs, g)
			}
		}
		var want []Spo
		mergeSpoGroups(refs, func(spo Spo) bool { want = append(want, spo); return true })
		all = append(all, want...)
		var got []Spo
		sn.Match(Any, pid, Any, func(spo Spo) bool { got = append(got, spo); return true })
		if !slices.Equal(got, want) {
			return fmt.Errorf("K=%d: Match(Any, %d, Any) reads %d triples, the reference %d: not the same triples in the same order", sn.k, pid, len(got), len(want))
		}
	}
	var got []Spo
	sn.Match(Any, Any, Any, func(spo Spo) bool { got = append(got, spo); return true })
	if !slices.Equal(got, all) {
		return fmt.Errorf("K=%d: Match(Any, Any, Any) reads %d triples, the reference %d: not the same triples in the same order", sn.k, len(got), len(all))
	}

	for i, p := range sn.parts {
		if !slices.Equal(p.predIDs, scs[i].ids) {
			return fmt.Errorf("K=%d part %d: predicate list %v, the reference %v", sn.k, i, p.predIDs, scs[i].ids)
		}
		srv := NewShardServer(sn.Part(i))
		probes := append(append([]ID(nil), sn.predIDs...), None, ID(sn.NumTerms()))
		if sn.NumTerms() > 0 {
			probes = append(probes, 0, ID(sn.NumTerms()-1))
		}
		for _, pid := range probes {
			want := scs[i].group(pid)
			var got []Spo
			switch gs := srv.rd.predGroups(pid); {
			case len(gs) > 1:
				return fmt.Errorf("K=%d part %d: predicate %d reads %d groups from one part", sn.k, i, pid, len(gs))
			case len(gs) == 1:
				if len(gs[0]) == 0 {
					return fmt.Errorf("K=%d part %d: predicate %d reads an empty group", sn.k, i, pid)
				}
				got = gs[0]
			}
			if !bytes.Equal(encodeFrzSpos(got), encodeFrzSpos(want)) {
				return fmt.Errorf("K=%d part %d: predicate %d's group differs from the reference (%d triples, want %d)", sn.k, i, pid, len(got), len(want))
			}
			reply := srv.answer(reqV(shrOpPredGrp, pid))
			if wantReply := append([]byte{shrStatusOK}, encodeFrzSpos(want)...); !bytes.Equal(reply, wantReply) {
				return fmt.Errorf("K=%d part %d: the server answers a group read of predicate %d with %d bytes, the reference %d", sn.k, i, pid, len(reply), len(wantReply))
			}
		}
	}
	return nil
}

// checkRemoteGroups serves g's k-part freeze from loopback shards, scans
// every predicate through a coordinator, and holds each shard's group reply
// to the reference's bytes and each remote scan to the local one.
func checkRemoteGroups(t *testing.T, g *Graph, k int) {
	t.Helper()
	var mu sync.Mutex
	replies := make(map[[2]ID][]byte) // (shard, predicate) → the reply
	addrs := startFrameShards(t, g, k, func(srv *ShardServer, req []byte) ([]byte, bool) {
		resp, ok := srv.handle(req)
		if len(req) == 5 && req[0] == shrOpPredGrp {
			mu.Lock()
			replies[[2]ID{ID(srv.part.Shard()), ID(binary.LittleEndian.Uint32(req[1:]))}] = resp
			mu.Unlock()
		}
		return resp, ok
	})
	sn := g.Freeze()
	rss, err := DialShards(addrs, g.Terms(), RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rss.Close()
	for _, p := range sn.predIDs {
		local, remote := collectVia(sn.Match, Any, p, Any), collectVia(rss.Match, Any, p, Any)
		if !slices.Equal(local, remote) {
			t.Fatalf("K=%d: a remote scan of predicate %d reads %d triples, a local one %d", k, p, len(remote), len(local))
		}
		for shard, part := range sn.parts {
			want := append([]byte{shrStatusOK}, encodeFrzSpos(scatterOf(part).group(p))...)
			if got := replies[[2]ID{ID(shard), p}]; !bytes.Equal(got, want) {
				t.Fatalf("K=%d: shard %d answers a group read of predicate %d with %d bytes, the reference %d", k, shard, p, len(got), len(want))
			}
		}
	}
}

// TestPredGroupsMatchScatter: on random rich graphs at K ∈ {1, 2, 3, 4, 8},
// after a freeze and after writes that follow it, every predicate scan
// reads what the reference scatter built, and so does every shard of a
// loopback set at K ∈ {2, 3}.
func TestPredGroupsMatchScatter(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, k := range []int{1, 2, 3, 4, 8} {
			g := randomRichGraph(rand.New(rand.NewSource(seed)))
			g.SetShards(k)
			if err := checkPredGroups(g.Freeze()); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var spos []Spo
			g.Freeze().Match(Any, Any, Any, func(spo Spo) bool { spos = append(spos, spo); return true })
			for i := 0; i < len(spos); i += 5 {
				g.Remove(spos[i].S, spos[i].P, spos[i].O)
			}
			for i := 1; i+1 < len(spos); i += 7 {
				g.AddSPO(spos[i+1].S, spos[i].P, spos[i-1].O)
			}
			if err := checkPredGroups(g.Freeze()); err != nil {
				t.Fatalf("seed %d, after writes: %v", seed, err)
			}
			if k == 2 || k == 3 {
				checkRemoteGroups(t, g, k)
			}
		}
	}
}
