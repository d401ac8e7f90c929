package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsAndExperimentsAgree holds the docs, the Makefile and the binary
// to one list of experiments. Every `-exp <id>` that README.md, DESIGN.md,
// EXPERIMENTS.md or the Makefile tells a reader to run must exist in the
// experiments table, and every experiment in the table must have its
// section in EXPERIMENTS.md. The one exemption: an EXPERIMENTS.md section
// whose heading says "retired" is where experiments that were deleted are
// named, beside what measures their subject now.
func TestDocsAndExperimentsAgree(t *testing.T) {
	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.id] = true
	}
	read := func(name string) string {
		data, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}

	var headings []string
	var live strings.Builder // EXPERIMENTS.md without its retired sections
	retired := false
	for _, line := range strings.SplitAfter(read("EXPERIMENTS.md"), "\n") {
		if strings.HasPrefix(line, "## ") {
			headings = append(headings, line)
			retired = strings.Contains(line, "retired")
		}
		if !retired {
			live.WriteString(line)
		}
	}

	mention := regexp.MustCompile("-exp ([a-z0-9]+)")
	for name, text := range map[string]string{
		"README.md":      read("README.md"),
		"DESIGN.md":      read("DESIGN.md"),
		"Makefile":       read("Makefile"),
		"EXPERIMENTS.md": live.String(),
	} {
		for _, m := range mention.FindAllStringSubmatch(text, -1) {
			if !known[m[1]] {
				t.Errorf("%s mentions -exp %s, which gqa-bench does not have", name, m[1])
			}
		}
	}

	for _, e := range experiments {
		found := false
		for _, h := range headings {
			found = found || strings.Contains(h, "`-exp "+e.id+"`")
		}
		if !found {
			t.Errorf("experiment %s has no EXPERIMENTS.md heading naming `-exp %s`", e.id, e.id)
		}
	}
}
