package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// waitForLine scans a process's stderr until a line containing marker
// appears, returning that line; it fails the test if the process exits
// or the deadline passes first.
func waitForLine(t *testing.T, name string, stderr *bufio.Scanner, marker string, timeout time.Duration) string {
	t.Helper()
	lineCh := make(chan string, 16)
	go func() {
		for stderr.Scan() {
			lineCh <- stderr.Text()
		}
		close(lineCh)
	}()
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("%s exited before printing %q", name, marker)
			}
			if strings.Contains(line, marker) {
				return line
			}
		case <-deadline:
			t.Fatalf("%s did not print %q within %s", name, marker, timeout)
		}
	}
}

// TestShardRPCSmokeBinary is the `make shard-rpc-smoke` tier-1 gate: the
// full multi-process deployment, end to end. It exports 4 shard
// parts with gqa-gen, boots 4 real gqa-shard servers, boots a gqa-serve
// coordinator with -shard-addrs pointing at them, answers a known
// question over HTTP (every frozen read crossing the process boundary),
// requires the gqa_rpc_* metrics on /metrics, and shuts the whole
// topology down cleanly with SIGTERM.
func TestShardRPCSmokeBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots five real binaries")
	}
	dir := t.TempDir()
	build := func(name, pkg string) string {
		bin := filepath.Join(dir, name)
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
		return bin
	}
	serveBin := build("gqa-serve", "gqa/cmd/gqa-serve")
	genBin := build("gqa-gen", "gqa/cmd/gqa-gen")
	shardBin := build("gqa-shard", "gqa/cmd/gqa-shard")

	const k = 4
	parts := make([]string, k)
	for i := 0; i < k; i++ {
		parts[i] = filepath.Join(dir, fmt.Sprintf("kb.%dof%d.shard", i, k))
		spec := fmt.Sprintf("%d/%d", i, k)
		if out, err := exec.Command(genBin, "frozen", "-shard", spec, "-o", parts[i]).CombinedOutput(); err != nil {
			t.Fatalf("exporting shard %s: %v\n%s", spec, err, out)
		}
	}

	// Boot the K shard servers and scrape their listen addresses.
	addrs := make([]string, k)
	shardCmds := make([]*exec.Cmd, k)
	for i := 0; i < k; i++ {
		cmd := exec.Command(shardBin, "-addr", "127.0.0.1:0", "-part", parts[i])
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting gqa-shard %d: %v", i, err)
		}
		shardCmds[i] = cmd
		t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() }) //nolint:errcheck
		line := waitForLine(t, fmt.Sprintf("gqa-shard %d", i), bufio.NewScanner(stderr), "listening on ", 30*time.Second)
		addrs[i] = strings.TrimSpace(line[strings.Index(line, "listening on ")+len("listening on "):])
	}

	// Boot the coordinator against the live shards.
	cmd := exec.Command(serveBin, "-addr", "127.0.0.1:0", "-shard-addrs", strings.Join(addrs, ","))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting gqa-serve: %v", err)
	}
	t.Cleanup(func() { cmd.Process.Kill(); cmd.Wait() }) //nolint:errcheck
	line := waitForLine(t, "gqa-serve", bufio.NewScanner(stderr), "listening on http://", 60*time.Second)
	base := "http://" + strings.TrimSpace(line[strings.Index(line, "listening on http://")+len("listening on http://"):])

	// Dialing the shards sent frames already (meta, entities, predicates).
	calls0, reads0 := metricValue(t, base, "gqa_rpc_calls_total"), metricValue(t, base, "gqa_rpc_reads_total")
	errs0 := metricValue(t, base, "gqa_rpc_errors_total")
	resp, err := http.Get(base + "/answer?q=" + url.QueryEscape("Who is the mayor of Berlin?"))
	if err != nil {
		t.Fatalf("GET /answer against the coordinator: %v", err)
	}
	var answer struct {
		OK       bool     `json:"ok"`
		Labels   []string `json:"labels"`
		Degraded string   `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !answer.OK {
		t.Fatalf("multi-process /answer not ok: %+v", answer)
	}
	if answer.Degraded != "" {
		t.Fatalf("multi-process /answer degraded over healthy shards: %q", answer.Degraded)
	}
	found := false
	for _, l := range answer.Labels {
		if strings.Contains(l, "Klaus Wowereit") {
			found = true
		}
	}
	if !found {
		t.Fatalf("multi-process /answer labels %v, want Klaus Wowereit", answer.Labels)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody := new(strings.Builder)
	if _, err := bufio.NewReader(mresp.Body).WriteTo(mbody); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	metrics := mbody.String()
	for _, name := range []string{"gqa_rpc_calls_total", "gqa_rpc_retries_total", "gqa_rpc_errors_total"} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s on a multi-process boot", name)
		}
	}
	if strings.Contains(metrics, "gqa_rpc_calls_total 0\n") {
		t.Error("gqa_rpc_calls_total is 0 — the answer never crossed the RPC boundary")
	}
	// The real binaries speak the batch opcode and the coordinator keeps a
	// read set: the one question both read ahead in batches and re-read.
	for _, name := range []string{"gqa_rpc_batch_reads_total", "gqa_rpc_read_hits_total"} {
		if !strings.Contains(metrics, "\n"+name+" ") || strings.Contains(metrics, "\n"+name+" 0\n") {
			t.Errorf("%s is missing or 0 after a question over four gqa-shard processes", name)
		}
	}
	// So the question sent fewer frames than it made per-vertex reads.
	calls := metricValue(t, base, "gqa_rpc_calls_total") - calls0
	reads := metricValue(t, base, "gqa_rpc_reads_total") - reads0
	if calls >= reads {
		t.Errorf("one question: %v frames (gqa_rpc_calls_total) for %v reads (gqa_rpc_reads_total), want fewer frames than reads", calls, reads)
	}
	t.Logf("one question: %v frames for %v reads", calls, reads)
	if errs := metricValue(t, base, "gqa_rpc_errors_total") - errs0; errs != 0 {
		t.Errorf("gqa_rpc_errors_total rose by %v over four healthy shards", errs)
	}

	// Clean SIGTERM shutdown: the coordinator drains, every shard exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gqa-serve did not exit cleanly on SIGTERM: %v", err)
	}
	for i, sc := range shardCmds {
		if err := sc.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := sc.Wait(); err != nil {
			t.Fatalf("gqa-shard %d did not exit cleanly on SIGTERM: %v", i, err)
		}
	}
}
