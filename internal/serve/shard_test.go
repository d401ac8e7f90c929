package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/url"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestShardSmokeBinary is the `make shard-smoke` tier-1 gate: build the
// real gqa-serve binary, boot it from a GQAFRZ1 snapshot with the store
// partitioned into 4 shards, answer one known question over HTTP, and
// require the shard metrics on /metrics — so a sharded-boot regression
// fails the gate end to end, not just in unit tests.
func TestShardSmokeBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gqa-serve")
	if out, err := exec.Command("go", "build", "-o", bin, "gqa/cmd/gqa-serve").CombinedOutput(); err != nil {
		t.Fatalf("building gqa-serve: %v\n%s", err, out)
	}
	gen := filepath.Join(dir, "gqa-gen")
	if out, err := exec.Command("go", "build", "-o", gen, "gqa/cmd/gqa-gen").CombinedOutput(); err != nil {
		t.Fatalf("building gqa-gen: %v\n%s", err, out)
	}
	frz := filepath.Join(dir, "kb.frz")
	if out, err := exec.Command(gen, "frozen", "-o", frz).CombinedOutput(); err != nil {
		t.Fatalf("generating frozen snapshot: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-snapshot", frz, "-shards", "4")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting gqa-serve: %v", err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	var base string
	scanner := bufio.NewScanner(stderr)
	deadline := time.After(30 * time.Second)
	lineCh := make(chan string, 16)
	go func() {
		for scanner.Scan() {
			lineCh <- scanner.Text()
		}
		close(lineCh)
	}()
scan:
	for {
		select {
		case line, ok := <-lineCh:
			if !ok {
				t.Fatal("gqa-serve exited before listening")
			}
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				base = "http://" + strings.TrimSpace(line[i+len("listening on http://"):])
				break scan
			}
		case <-deadline:
			t.Fatal("gqa-serve did not report listening within 30s")
		}
	}

	resp, err := http.Get(base + "/answer?q=" + url.QueryEscape("Who is the mayor of Berlin?"))
	if err != nil {
		t.Fatalf("GET /answer against the sharded binary: %v", err)
	}
	var answer struct {
		OK     bool     `json:"ok"`
		Labels []string `json:"labels"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !answer.OK {
		t.Fatalf("sharded /answer not ok: %+v", answer)
	}
	found := false
	for _, l := range answer.Labels {
		if strings.Contains(l, "Klaus Wowereit") {
			found = true
		}
	}
	if !found {
		t.Fatalf("sharded /answer labels %v, want Klaus Wowereit", answer.Labels)
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
	for _, name := range []string{"gqa_store_shard_freezes_total"} {
		if !strings.Contains(metrics, name) {
			t.Errorf("/metrics missing %s on a sharded boot", name)
		}
	}
}
