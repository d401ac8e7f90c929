package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"time"

	"gqa"
	"gqa/internal/bench"
	"gqa/internal/core"
	"gqa/internal/eval"
	"gqa/internal/flight"
	"gqa/internal/serve"
	"gqa/internal/store"
)

// question is one distinct input of a workload.
type question struct {
	text     string
	template string
	gold     []string // sorted N-Triples terms; nil where the gold is eval's outcome (qald)
	want     string   // fingerprint of the verified reference answer
	failure  string   // the reference answer's failure kind, "" when answered
	right    bool     // the reference answer equals the gold standard
}

// askFunc answers one question through the workload's user entry point. It
// returns the answer's fingerprint and the caller-visible latency of the
// call itself (fingerprinting is outside the timed part).
type askFunc func(ctx context.Context, text string) (fp string, d time.Duration, err error)

// setupParts are the timed pieces of one set-up, in milliseconds.
type setupParts struct {
	mineMs, freezeMs, indexBuildMs, shardExportLoadMs float64
}

// fixture is one workload ready to serve.
type fixture struct {
	workload string
	sys      *gqa.System // the served system; on match-rpc its frozen reads cross the wire
	qs       []question
	ask      askFunc
	overHTTP bool
	// drawn is serve-zipf's request stream, indexes into qs; nil where a run
	// asks shuffled passes over qs. Its first latencyAsks requests are the
	// pass of a latency round and the rest that of a throughput round, so
	// the rounds replay one cycle and each kind meets the cache in the same
	// state every time.
	drawn       []int
	latencyAsks int
	openRate    float64 // requests per second of the traced run's open loop
	parts       setupParts
	closers     []func()

	// reference is where verify takes reference answers from: sys itself,
	// or on match-rpc a plain in-process K=1 system over a copy of the
	// same KB, whose answers the remote ones must be byte-identical to.
	reference *gqa.System
	remote    bool // frozen reads cross the shard RPC boundary
	// judge scores the reference answers against the gold standard, setting
	// each question's right; nil means every answer must equal its gold set.
	judge func(fx *fixture, refs []*gqa.Answer) error
	// minePhrases names the phrase table of an equivalent mining job where
	// the generator gives no separate mining time (nl-scale).
	minePhrases []phrasePred
}

// latencyPass returns the asks of one pass of a latency round — a shuffled
// pass over the list, or the latency stretch of serve-zipf's stream — and
// the slot each one's latency is filed under: the question, or the position
// in the stretch.
func (fx *fixture) latencyPass(s *stream) (order, slots []int) {
	if fx.drawn == nil {
		order = s.take(len(fx.qs))
		return order, order
	}
	order = fx.drawn[:fx.latencyAsks]
	slots = make([]int, len(order))
	for i := range slots {
		slots[i] = i
	}
	return order, slots
}

// slots is how many slots latencyPass files latencies under.
func (fx *fixture) slots() int {
	if fx.drawn == nil {
		return len(fx.qs)
	}
	return fx.latencyAsks
}

func (fx *fixture) slotTemplate(slot int) string {
	if fx.drawn == nil {
		return fx.qs[slot].template
	}
	return fx.qs[fx.drawn[slot]].template
}

// throughputPass returns the asks the callers of a throughput round share
// in one pass: a shuffled pass over the list for each caller, or the
// throughput stretch of serve-zipf's stream.
func (fx *fixture) throughputPass(s *stream) []int {
	if fx.drawn == nil {
		return s.take(clients() * len(fx.qs))
	}
	return fx.drawn[fx.latencyAsks:]
}

func (fx *fixture) close() {
	for i := len(fx.closers) - 1; i >= 0; i-- {
		fx.closers[i]()
	}
	fx.closers = nil
}

// newFixture sets one workload up from scratch: generate or load the KB,
// mine the dictionary, freeze, build the linker index, and where used
// export and load shard parts, dial them, or boot the HTTP listener. It
// ends with the first served answer.
func newFixture(workload string, seed int64, sz sizes) (*fixture, error) {
	var fx *fixture
	var err error
	switch workload {
	case wlQald:
		fx, err = setupQald()
	case wlNLScale:
		fx, err = setupNLScale(seed, sz.nlPeople, sz.nlMix)
	case wlMatchLocal:
		fx = setupCinema(seed, sz.films, sz.cast, sz.mix)
	case wlMatchRPC:
		fx, err = setupCinemaRPC(seed, sz.rpcFilms, sz.rpcCast, sz.rpcMix)
	case wlServeZipf:
		fx, err = setupServeZipf(seed, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", workload, err)
	}
	fx.workload = workload
	if fx.ask == nil {
		fx.ask = facadeAsk(fx.sys)
	}
	if _, _, err := fx.ask(context.Background(), fx.qs[0].text); err != nil {
		fx.close()
		return nil, fmt.Errorf("%s first answer: %w", workload, err)
	}
	return fx, nil
}

// assemble freezes the graph and builds the facade over it, timing the two
// parts (NewSystem's own freeze is then a pointer load, so what it costs
// is the linker index).
func assemble(fx *fixture, g *store.Graph, build func() *gqa.System) {
	fx.parts.freezeMs = msSince(func() { g.Freeze() })
	fx.parts.indexBuildMs = msSince(func() { fx.sys = build() })
}

func setupQald() (*fixture, error) {
	fx := &fixture{judge: judgeQald}
	g, err := bench.BuildKB()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	d, _, err := bench.BuildDictionary(g)
	if err != nil {
		return nil, err
	}
	fx.parts.mineMs = ms(time.Since(start))
	assemble(fx, g, func() *gqa.System { return gqa.NewSystem(g, d, gqa.Options{}) })
	for _, q := range bench.Workload() {
		fx.qs = append(fx.qs, question{text: q.Text, template: q.Category.String()})
	}
	return fx, nil
}

// nlMix is how many distinct questions of each nl-scale template a
// workload asks.
type nlMix struct{ married, lives, peopleIn int }

// nlQuestions picks distinct questions of the wanted templates from an
// nl-scale KB, whose generator emits married-to, lives-where and
// which-people-live-in questions in turn.
func nlQuestions(kb *bench.NLScaleKB, mix nlMix) ([]question, error) {
	names := [3]string{"married-to", "lives-where", "which-people-live-in"}
	want := [3]int{mix.married, mix.lives, mix.peopleIn}
	var have [3]int
	seen := make(map[string]bool)
	var qs []question
	for i, q := range kb.Questions {
		t := i % 3
		if have[t] >= want[t] || seen[q.Text] {
			continue
		}
		seen[q.Text] = true
		have[t]++
		qs = append(qs, question{text: q.Text, template: names[t], gold: sortedTerms(q.Gold)})
	}
	if have != want {
		return nil, fmt.Errorf("nl-scale generator gave %v distinct questions per template, want %v", have, want)
	}
	return qs, nil
}

// generated is how many questions to ask the nl-scale generator for so
// that every template has enough distinct ones.
func (m nlMix) generated() int {
	return 4*max(m.married, m.lives, m.peopleIn) + 30
}

func setupNLScale(seed int64, people int, mix nlMix) (*fixture, error) {
	fx := &fixture{minePhrases: nlScalePhrases}
	kb, err := bench.NewNLScaleKB(people, mix.generated(), seed)
	if err != nil {
		return nil, err
	}
	assemble(fx, kb.Graph, func() *gqa.System { return gqa.NewSystem(kb.Graph, kb.Dict, gqa.Options{}) })
	if fx.qs, err = nlQuestions(kb, mix); err != nil {
		return nil, err
	}
	return fx, nil
}

// cinemaMix is how many distinct questions of each template a pass asks.
// The three templates cost up to two orders of magnitude apart, so the mix
// is multi-modal, and the counts put p50 and p95 each well inside one
// template's cluster, never on the boundary between two.
type cinemaMix struct{ spouse, castOf, director int }

func (m cinemaMix) most() int { return max(m.spouse, m.castOf, m.director) }

func cinemaFixture(kb *cinemaKB, mix cinemaMix) *fixture {
	fx := &fixture{parts: setupParts{mineMs: kb.mineMs}}
	for _, t := range []struct {
		name string
		n    int
	}{{tmplSpouse, mix.spouse}, {tmplCastOf, mix.castOf}, {tmplDirector, mix.director}} {
		for _, q := range kb.pool[t.name][:t.n] {
			fx.qs = append(fx.qs, question{text: q.text, template: t.name, gold: sortedTerms(q.gold)})
		}
	}
	return fx
}

func setupCinema(seed int64, films, cast int, mix cinemaMix) *fixture {
	kb := newCinemaKB(films, cast, mix.most(), seed)
	fx := cinemaFixture(kb, mix)
	assemble(fx, kb.graph, func() *gqa.System { return gqa.NewSystem(kb.graph, kb.dict, gqa.Options{}) })
	return fx
}

// rpcShards is how many shard servers match-rpc spreads the store over.
const rpcShards = 4

func setupCinemaRPC(seed int64, films, cast int, mix cinemaMix) (*fixture, error) {
	kb := newCinemaKB(films, cast, mix.most(), seed)
	fx := cinemaFixture(kb, mix)
	fx.remote = true
	g := kb.graph
	g.SetShards(rpcShards)
	// The linker index is built here, over local reads, before the remote
	// view takes over the graph's frozen surface.
	assemble(fx, g, func() *gqa.System { return gqa.NewSystem(g, kb.dict, gqa.Options{}) })

	// Each shard goes through the part-file format and is served on its
	// own loopback listener, the wire path of a gqa-shard deployment.
	addrs := make([]string, rpcShards)
	start := time.Now()
	for i := range addrs {
		var buf bytes.Buffer
		if err := store.SaveShardPart(&buf, g, i); err != nil {
			fx.close()
			return nil, err
		}
		part, err := store.LoadShardPart(&buf)
		if err != nil {
			fx.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fx.close()
			return nil, err
		}
		srv := store.NewShardServer(part)
		go srv.Serve(ln) //nolint:errcheck // returns net.ErrClosed after Close
		fx.closers = append(fx.closers, srv.Close)
		addrs[i] = ln.Addr().String()
	}
	fx.parts.shardExportLoadMs = ms(time.Since(start))
	rss, err := store.DialShards(addrs, g.Terms(), store.RemoteOptions{})
	if err != nil {
		fx.close()
		return nil, err
	}
	fx.closers = append(fx.closers, func() { rss.Close() })
	g.SetRemoteView(rss)
	return fx, nil
}

// What serve-zipf keeps the same on every run. The KB is generated from
// zipfKB, not from the run's seed, because the generator mines the
// dictionary from a seeded sample and the dictionary decides how many
// matches an answer has — and the serving layer replays every match of a
// cached answer as a trace span, so a hit costs 20 to 250 us depending on
// it: wired from the run's seed, two seeds in ten ran a third slower. The
// stream is popularity ranks drawn from zipfRanks; drawn from the run's
// seed it would decide the hit share of a round, and with it what a round
// costs. The run's seed picks which residents the questions ask about and
// which rank each holds, out of a pool zipfPool times the keys a run uses.
const (
	zipfKB    = 11
	zipfRanks = 11
	zipfPool  = 4
)

func setupServeZipf(seed int64, sz sizes) (*fixture, error) {
	fx := &fixture{overHTTP: true, openRate: sz.zipfRate, latencyAsks: sz.zipfLatencyAsks, minePhrases: nlScalePhrases}
	pool := nlMix{married: zipfPool * sz.zipfKeys}
	kb, err := bench.NewNLScaleKB(sz.zipfPeople, pool.generated(), zipfKB)
	if err != nil {
		return nil, err
	}
	assemble(fx, kb.Graph, func() *gqa.System {
		return gqa.NewSystem(kb.Graph, kb.Dict, gqa.Options{Cache: gqa.CacheConfig{Entries: sz.zipfCache}})
	})
	// One template only: every hit then costs the same and so does every
	// miss, so p50 (a hit) and p95 (a miss) each sit inside one cluster.
	if fx.qs, err = nlQuestions(kb, pool); err != nil {
		return nil, err
	}
	// The seed's pick of the pool, in popularity order: qs[0] is the
	// hottest key.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(fx.qs), func(i, j int) { fx.qs[i], fx.qs[j] = fx.qs[j], fx.qs[i] })
	fx.qs = fx.qs[:sz.zipfKeys]
	zipf := rand.NewZipf(rand.New(rand.NewSource(zipfRanks)), 1.1, 1, uint64(len(fx.qs)-1))
	fx.drawn = make([]int, sz.zipfLatencyAsks+sz.zipfThroughputAsks)
	for i := range fx.drawn {
		fx.drawn[i] = int(zipf.Uint64())
	}

	// The live handler as gqa-serve assembles it: flight recorder on,
	// default admission limits, per-question timeout.
	recorder, err := flight.New(flight.Config{})
	if err != nil {
		return nil, err
	}
	fx.closers = append(fx.closers, func() { recorder.Close() })
	handler := serve.New(fx.sys, serve.Config{
		Timeout:     5 * time.Second,
		MaxQuestion: 1024,
		Flight:      recorder,
		Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fx.close()
		return nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed after Close
	}()
	// Keep-alive connections, never more than the cores the load
	// generator shares with the server.
	conns := clients()
	transport := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	fx.closers = append(fx.closers, func() {
		transport.CloseIdleConnections()
		srv.Close()
		<-done
	})
	fx.ask = httpAsk(&http.Client{Transport: transport}, "http://"+ln.Addr().String())
	return fx, nil
}

// clients is how many concurrent callers the throughput rounds and the
// open loop use: never more than the cores, at most four.
func clients() int { return min(runtime.NumCPU(), 4) }

// fingerprint renders the answer fields a caller acts on, the same from a
// facade Answer and from an /answer response body.
func fingerprint(ok bool, failure, degraded string, boolean *bool, labels, iris []string, sparql string) string {
	b := "-"
	if boolean != nil {
		b = fmt.Sprint(*boolean)
	}
	return fmt.Sprintf("ok=%t failure=%q degraded=%q boolean=%s labels=%q iris=%q sparql=%q",
		ok, failure, degraded, b, labels, iris, sparql)
}

func answerFingerprint(a *gqa.Answer) string {
	return fingerprint(a.OK, a.Failure, a.Degraded, a.Boolean, a.Labels, a.IRIs, a.SPARQL)
}

// facadeAsk is the in-process user entry point.
func facadeAsk(sys *gqa.System) askFunc {
	return func(ctx context.Context, text string) (string, time.Duration, error) {
		start := time.Now()
		ans, err := sys.AnswerContext(ctx, text)
		d := time.Since(start)
		if err != nil {
			return "", d, err
		}
		return answerFingerprint(ans), d, nil
	}
}

// httpAsk is one /answer round trip: request out, whole body back.
func httpAsk(client *http.Client, base string) askFunc {
	return func(ctx context.Context, text string) (string, time.Duration, error) {
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/answer?q="+url.QueryEscape(text), nil)
		if err != nil {
			return "", 0, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return "", time.Since(start), err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		d := time.Since(start)
		if err != nil {
			return "", d, err
		}
		if resp.StatusCode != http.StatusOK {
			return "", d, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
		var r struct {
			Labels   []string `json:"labels"`
			IRIs     []string `json:"iris"`
			Boolean  *bool    `json:"boolean"`
			OK       bool     `json:"ok"`
			Failure  string   `json:"failure"`
			Degraded string   `json:"degraded"`
			SPARQL   string   `json:"sparql"`
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return "", d, fmt.Errorf("decoding /answer body: %w", err)
		}
		return fingerprint(r.OK, r.Failure, r.Degraded, r.Boolean, r.Labels, r.IRIs, r.SPARQL), d, nil
	}
}

// copyGraph builds a fresh unfrozen, unsharded graph holding g's triples
// under g's term IDs, so dictionaries and query graphs made over g read it
// unchanged.
func copyGraph(g *store.Graph) (*store.Graph, error) {
	cp := store.New()
	for _, t := range g.Terms() {
		cp.Intern(t)
	}
	triples := g.Triples()
	sort.Slice(triples, func(i, j int) bool { return triples[i].Compare(triples[j]) < 0 })
	if err := cp.AddAll(triples); err != nil {
		return nil, err
	}
	return cp, nil
}

// inputHash pins a workload's inputs: sorted triples, then the question
// texts in order.
func (fx *fixture) inputHash() string {
	triples := fx.sys.Graph().Triples()
	lines := make([]string, len(triples))
	for i, t := range triples {
		lines[i] = t.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		io.WriteString(h, l)
		h.Write([]byte{'\n'})
	}
	for _, q := range fx.qs {
		io.WriteString(h, q.text)
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// verify answers every distinct question once — the correctness check and
// the warm-up. The reference answer must be complete (not degraded) and
// the user entry point must return exactly it; then each reference is
// judged against the gold standard. On qald the gold outcome is eval's and
// the count of right answers is pinned; everywhere else every answer must
// be right. On serve-zipf the drawn stream is then replayed once, so that
// the first round starts on the cache as every later one finds it and not
// on one holding whatever verification asked last.
func verify(ctx context.Context, fx *fixture) error {
	if fx.reference == nil {
		fx.reference = fx.sys
		if fx.remote {
			twin, err := copyGraph(fx.sys.Graph())
			if err != nil {
				return err
			}
			fx.reference = gqa.NewSystem(twin, fx.sys.Dictionary(), gqa.Options{})
		}
	}
	ref := fx.reference
	sameCall := !fx.remote && !fx.overHTTP
	refs := make([]*gqa.Answer, len(fx.qs))
	for i := range fx.qs {
		q := &fx.qs[i]
		ans, err := ref.AnswerContext(ctx, q.text)
		if err != nil {
			return fmt.Errorf("%s: reference answer to %q: %w", fx.workload, q.text, err)
		}
		if ans.Degraded != "" {
			return fmt.Errorf("%s: reference answer to %q is degraded (%s)", fx.workload, q.text, ans.Degraded)
		}
		refs[i], q.want, q.failure = ans, answerFingerprint(ans), ans.Failure
		if sameCall {
			continue
		}
		got, _, err := fx.ask(ctx, q.text)
		if err != nil {
			return fmt.Errorf("%s: %q: %w", fx.workload, q.text, err)
		}
		if got != q.want {
			return fmt.Errorf("%s: %q: served answer differs from the reference\n served    %s\n reference %s", fx.workload, q.text, got, q.want)
		}
	}
	if fx.drawn != nil {
		for _, qi := range fx.drawn {
			if got, _, err := fx.ask(ctx, fx.qs[qi].text); err != nil || got != fx.qs[qi].want {
				return fmt.Errorf("%s: %q: warm-up answer differs from the verified one (%v)", fx.workload, fx.qs[qi].text, err)
			}
		}
	}
	if fx.judge != nil {
		return fx.judge(fx, refs)
	}
	for i := range fx.qs {
		q := &fx.qs[i]
		got := append([]string(nil), refs[i].IRIs...)
		sort.Strings(got)
		q.right = strings.Join(got, "\n") == strings.Join(q.gold, "\n")
		if !q.right {
			return fmt.Errorf("%s: %q: answered %d terms, generator gold has %d and they differ", fx.workload, q.text, len(got), len(q.gold))
		}
	}
	return nil
}

// qaldRight is the number of the 99 questions the seed commit answers
// exactly right (the paper's Table 8 "right" row, reproduced).
const qaldRight = 78

// judgeQald scores the workload with internal/eval over the core engine,
// checks the facade returned the same answers the engine did, and holds
// the right-count to the pinned one.
func judgeQald(fx *fixture, refs []*gqa.Answer) error {
	eng := core.NewSystem(fx.sys.Graph(), fx.sys.Dictionary(), core.Options{TopK: 10})
	results := eval.RunOurs(eng, bench.Workload())
	right := 0
	for i, r := range results {
		var iris []string
		for _, t := range r.Answers {
			iris = append(iris, t.String())
		}
		if fmt.Sprint(iris) != fmt.Sprint(refs[i].IRIs) {
			return fmt.Errorf("qald: %q: facade answered %v, the engine eval scored answered %v", r.Question.Text, refs[i].IRIs, iris)
		}
		fx.qs[i].right = r.Outcome == eval.OutcomeRight
		if fx.qs[i].right {
			right++
		}
	}
	if right != qaldRight {
		return fmt.Errorf("qald: %d of %d questions answered right, the pinned count is %d", right, len(results), qaldRight)
	}
	return nil
}
