package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gqa"
	"gqa/internal/flight"
	"gqa/internal/rdf"
	"gqa/internal/store"
)

// FuzzRequestStringsStayJSON: whatever bytes a client puts in the question
// and in X-Client, the four places they are echoed as JSON stay JSON — the
// /answer?trace=1 body, /debug/trace/latest, /debug/flight/trace/<id> and
// the -flight-log line. The seeds are the table: control bytes, invalid
// UTF-8, U+2028, quotes and backslashes. (Quoting them with strconv.Quote,
// Go syntax, answered the first seed with 200 and an empty body.)
func FuzzRequestStringsStayJSON(f *testing.F) {
	for _, s := range []string{
		"Who is the mayor of Berlin\x01?",
		"Who is the mayor of \xff\xfeBerlin?",
		"Who is the mayor of Berlin\u2028?",
		`Who is the "mayor" of \Berlin\?`,
		"Who is the mayor of Berlin\x00\x1f\x7f?",
		"<script>Who & whom?</script>",
	} {
		f.Add(s, s)
	}
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		f.Fatal(err)
	}
	logPath := filepath.Join(f.TempDir(), "events.jsonl")
	rec, err := flight.New(flight.Config{Path: logPath})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { rec.Close() })
	srv := New(sys, Config{Flight: rec})
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}

	f.Fuzz(func(t *testing.T, q, client string) {
		if q == "" {
			t.Skip("no question: a 400 before anything is echoed")
		}
		req := httptest.NewRequest(http.MethodGet, "/answer?trace=1&q="+url.QueryEscape(q), nil)
		req.Header["X-Client"] = []string{client}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		surfaces := map[string][]byte{"/answer?trace=1": w.Body.Bytes()}
		if w.Code != http.StatusOK {
			t.Fatalf("/answer: status %d: %s", w.Code, w.Body)
		}
		surfaces["/debug/trace/latest"] = get("/debug/trace/latest").Body.Bytes()
		id := w.Header().Get("X-Gqa-Trace-Id")
		rec.Sync()
		surfaces["/debug/flight/trace/<id>"] = get("/debug/flight/trace/" + id).Body.Bytes()
		logged, err := os.ReadFile(logPath)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSuffix(logged, []byte("\n")), []byte("\n"))
		surfaces["flight log line"] = lines[len(lines)-1]
		for name, body := range surfaces {
			if len(body) == 0 || !json.Valid(body) {
				t.Errorf("%s is not JSON for q=%q client=%q:\n%s", name, q, client, body)
			}
			if !bytes.Contains(body, []byte(id)) {
				t.Errorf("%s does not carry the request's trace ID %s:\n%s", name, id, body)
			}
		}
	})
}

// TestDegradedReasonReachesWideEvent: an answer cut short by the matcher's
// match cap (a class of 10 001 instances asked for by type alone) says so
// on the request's wide event, a request refused at admission is recorded
// by the same code with its own status, and an answer degraded because a
// shard server is dead carries the count of reads that failed (rpc_errors).
func TestDegradedReasonReachesWideEvent(t *testing.T) {
	g := store.New()
	typ := g.Intern(rdf.NewIRI(rdf.RDFType))
	widget := g.Intern(rdf.Ontology("Widget"))
	g.AddSPO(widget, g.Intern(rdf.NewIRI(rdf.RDFSLabel)), g.Intern(rdf.NewLiteral("widget")))
	for i := 0; i <= 10000; i++ {
		g.AddSPO(g.Intern(rdf.Resource(fmt.Sprintf("w%05d", i))), typ, widget)
	}
	rec, err := flight.New(flight.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	srv := New(gqa.NewSystem(g, nil, gqa.Options{}), Config{Flight: rec})
	ask := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/answer?q="+url.QueryEscape("Give me all widgets."), nil))
		return w
	}
	if w := ask(); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"degraded":"matches"`) {
		t.Fatalf("capped answer: status %d, body %.200s", w.Code, w.Body)
	}
	srv.BeginDrain()
	if w := ask(); w.Code != http.StatusTooManyRequests {
		t.Fatalf("request while draining: status %d, want 429", w.Code)
	}

	// The bundled KB behind two loopback shard servers, Berlin's dead.
	sys, err := gqa.Open(gqa.Source{}, gqa.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kb := sys.Graph()
	kb.SetShards(2)
	addrs := make([]string, 2)
	servers := make([]*store.ShardServer, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = store.NewShardServer(kb.Freeze().Part(i))
		go servers[i].Serve(ln) //nolint:errcheck // returns net.ErrClosed after Close
		t.Cleanup(servers[i].Close)
		addrs[i] = ln.Addr().String()
	}
	rss, err := store.DialShards(addrs, kb.Terms(), store.RemoteOptions{
		CallTimeout: 200 * time.Millisecond, Retries: 1, RetryBackoff: time.Millisecond, DownCooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rss.Close)
	kb.SetRemoteView(rss)
	berlin, ok := kb.LookupIRI(rdf.Resource("Berlin").Value())
	if !ok {
		t.Fatal("no Berlin in the bundled KB")
	}
	servers[int(berlin)%2].Close()
	w := httptest.NewRecorder()
	New(sys, Config{Flight: rec}).ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/answer?q="+url.QueryEscape("Who is the mayor of Berlin?"), nil))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"degraded":"shard-unavailable"`) {
		t.Fatalf("dead-shard answer: status %d, body %.200s", w.Code, w.Body)
	}

	rec.Sync()
	events := string(rec.SlowestJSON())
	if regexp.MustCompile(`"degraded":"shard-unavailable"[^}]*"rpc_errors":[1-9]`).FindString(events) == "" {
		t.Errorf("the shard-unavailable event carries no rpc_errors: %s", events)
	}
	for _, want := range []string{`"status":"ok"`, `"degraded":"matches"`, `"results":10000`, `"status":"rejected:draining"`} {
		if !strings.Contains(events, want) {
			t.Errorf("no wide event carries %s: %s", want, events)
		}
	}
}
