package main

import (
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func spec(t *testing.T) map[string]metricSpec {
	t.Helper()
	s, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return s.metrics
}

// section returns the text of EXPERIMENTS.md's section that starts with
// heading, up to the next section.
func section(t *testing.T, heading string) string {
	t.Helper()
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	start := strings.Index(s, heading)
	if start < 0 {
		t.Fatalf("EXPERIMENTS.md has no %q", heading)
	}
	s = s[start+len(heading):]
	if end := strings.Index(s, "\n## "); end >= 0 {
		s = s[:end]
	}
	return s
}

// TestSection15Regenerates is the exit test the tool was written against:
// EXPERIMENTS.md §15's two tables and its identity block come out of
// artifacts/bench_pr29/pairs.tsv byte for byte.
func TestSection15Regenerates(t *testing.T) {
	doc := section(t, "## 15. ")
	pairs := "../../artifacts/bench_pr29/pairs.tsv"
	var out bytes.Buffer
	for _, only := range [][]string{{"final", "final-gap5", "final-rerun"}, {"first-cut"}} {
		out.Reset()
		if err := printTable(&out, pairs, only, spec(t)); err != nil {
			t.Fatal(err)
		}
		tbl := out.String()[:strings.Index(out.String(), "\n\n")+1]
		if !strings.Contains(doc, "\n"+tbl+"\n") {
			t.Errorf("series %v: EXPERIMENTS §15 does not hold the table\n%s", only, tbl)
		}
	}
	out.Reset()
	if err := printTable(&out, pairs, nil, spec(t)); err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(out.String(), "\n\n")
	if !strings.Contains(doc, "```\n"+blocks[1]+"\n```") {
		t.Errorf("EXPERIMENTS §15 does not hold the identity block\n%s", blocks[1])
	}
}

func TestFormatAndQuantile(t *testing.T) {
	for v, want := range map[float64]string{
		0: "0", 63.3: "63.3", 0.0007042: "0.0007042", 1.23456e-5: "1.235e-05", 999.96: "1000",
		-0.04: "-0.04", 12.0: "12", 1e-4: "0.0001", 5.364: "5.364", 1234.5: "1234", 1235.5: "1236",
	} {
		if got := num(v); got != want {
			t.Errorf("num(%v) = %q, want %q", v, got, want)
		}
	}
	vs := []float64{4, 1, 3, 2}
	for p, want := range map[float64]float64{0: 1, .25: 1.75, .5: 2.5, .75: 3.25, 1: 4} {
		if got := quantile(vs, p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestVerdict(t *testing.T) {
	s := spec(t)
	c := comparison{parentQ: [3]float64{90, 100, 110}, changeQ: [3]float64{60, 70, 80}, wins: 10, n: 10, sign: 1}
	if got := c.verdict(s["capacity_mps"]); got != "WORSE" {
		t.Errorf("capacity down 30 %%: %s", got)
	}
	c.sign = -1
	if got := c.verdict(s["host_us_per_query"]); got != "better" {
		t.Errorf("time down 30 %%, 10 of 10: %s", got)
	}
	c.wins = 8
	if got := c.verdict(s["host_us_per_query"]); got != "level" {
		t.Errorf("time down 30 %%, 8 of 10: %s", got)
	}
	c.wins, c.changeQ = 10, [3]float64{85, 95, 105}
	if got := c.verdict(s["host_us_per_query"]); got != "level" {
		t.Errorf("medians 5 apart, parent IQR 20: %s", got)
	}
}

// fakeBenchmark commits, in a new git repository at dir, a
// benchmark/run.sh that reports the given host_us_per_query; it fails when
// given a run length, which is BENCHMARK.json's to set. It returns the
// commit.
func fakeBenchmark(t *testing.T, dir, us string) string {
	t.Helper()
	script := `#!/usr/bin/env bash
case "$*" in *--seconds*) echo "run length given: $*" >&2; exit 3 ;; esac
echo "$2 digest abc123"
echo '{"correct":true,"attempted":9,"failed":0,"metrics":{"capacity_mps":{"value":1000},"host_us_per_query":{"value":` + us + `},` +
		`"lat_p50_ms":{"value":0.5},"peak_rss_mb":{"value":12},"setup_s":{"value":0.002},"sim_cons_allocsat":{"value":1.3},` +
		`"sim_prov_sat":{"value":0.5},"sim_resp_mean_s":{"value":4.8}}}'
`
	if err := os.MkdirAll(filepath.Join(dir, "benchmark"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "benchmark", "run.sh"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	gitIn(t, dir, "init", "-q")
	gitIn(t, dir, "add", ".")
	gitIn(t, dir, "commit", "-q", "-m", "benchmark")
	sha, err := git(dir, "rev-parse", "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	return sha
}

func gitIn(t *testing.T, dir string, args ...string) {
	t.Helper()
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git")
	}
	cmd := exec.Command("git", append([]string{"-C", dir, "-c", "user.name=t", "-c", "user.email=t@t"}, args...)...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("git %v: %v\n%s", args, err, out)
	}
}

func TestRunPairsAlternates(t *testing.T) {
	root := t.TempDir()
	base, change := filepath.Join(root, "base"), filepath.Join(root, "change")
	parentSHA := fakeBenchmark(t, base, "20")
	changeSHA := fakeBenchmark(t, change, "10")
	out := filepath.Join(root, "pairs.tsv")
	cfg := runConfig{base: "HEAD", baseDir: base, changeDir: change, workloads: []string{"sim-paper", "serve-paper"},
		seed: 7, pairs: 3, runSeconds: 20, series: "s", out: out}
	var log bytes.Buffer
	if err := runPairs(&log, cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != strings.Join(columns, "\t") || !strings.HasPrefix(lines[1], "# series s: parent "+parentSHA+", change "+changeSHA+";") ||
		!strings.HasPrefix(lines[2], "# command: bash benchmark/run.sh --workload W --seed 7 --trace 0 (run_seconds 20)") {
		t.Fatalf("header:\n%s\n%s\n%s", lines[0], lines[1], lines[2])
	}
	var rows []string
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "#") {
			rows = append(rows, l)
		}
	}
	want := []string{"1\tparent\tfirst\t20\t", "1\tchange\tsecond\t10\t", "2\tchange\tfirst\t10\t", "2\tparent\tsecond\t20\t", "3\tparent\tfirst\t20\t"}
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12", len(rows))
	}
	for i, w := range want {
		if !strings.HasPrefix(rows[i], "s\tsim-paper\t7\t"+w) || !strings.HasSuffix(rows[i], "\t0\ttrue\tabc123") {
			t.Errorf("row %d: %q, want prefix %q", i, rows[i], w)
		}
	}
	var tbl bytes.Buffer
	if err := printTable(&tbl, out, nil, spec(t)); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"| s | sim-paper, 7 | `host_us_per_query` | 20 / **20** / 20 (0) | 10 / **10** / 10 (0) | -50.0 % | 3 / 3 |",
		"s serve-paper seed 7: 6 runs, outputs identical; second-run side slower in 1 / 3 pairs",
		"verdict s sim-paper seed 7: host_us_per_query better (-50.0 %, wins 3 of 3)"} {
		if !strings.Contains(tbl.String(), w) {
			t.Errorf("table lacks %q:\n%s", w, tbl.String())
		}
	}
}

// TestWorktree checks the parent checkout: a detached worktree of the
// revision under .bench_build/, reused on the next run.
func TestWorktree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("no git")
	}
	dir := t.TempDir()
	gitIn(t, dir, "init", "-q")
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	gitIn(t, dir, "add", "f")
	gitIn(t, dir, "commit", "-q", "-m", "one")
	if err := os.WriteFile(filepath.Join(dir, "f"), []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	path, err := worktree(dir, "HEAD")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(path, "f")); string(got) != "one" {
		t.Errorf("worktree holds %q, want the commit's %q", got, "one")
	}
	if again, err := worktree(dir, "HEAD"); err != nil || again != path {
		t.Errorf("second call: %q, %v; want %q reused", again, err, path)
	}
	if c, err := commit(dir); err != nil || !strings.HasSuffix(c, "+dirty") {
		t.Errorf("commit of a modified tree = %q, %v; want +dirty", c, err)
	}
}

// TestRunPairsNamesItsParent checks that a parent checkout must say what
// it holds: a directory outside git is refused, and so is a checkout of
// another commit than -base.
func TestRunPairsNamesItsParent(t *testing.T) {
	root := t.TempDir()
	base, change, plain := filepath.Join(root, "base"), filepath.Join(root, "change"), filepath.Join(root, "plain")
	fakeBenchmark(t, base, "20")
	gitIn(t, base, "commit", "-q", "--allow-empty", "-m", "two")
	fakeBenchmark(t, change, "10")
	if err := os.CopyFS(filepath.Join(plain, "benchmark"), os.DirFS(filepath.Join(base, "benchmark"))); err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]runConfig{
		"not a git checkout": {baseDir: plain},
		"another commit":     {baseDir: base, base: "HEAD~1"},
	} {
		cfg.changeDir, cfg.workloads, cfg.pairs, cfg.out = change, []string{"sim-paper"}, 1, filepath.Join(root, name+".tsv")
		if err := runPairs(io.Discard, cfg); err == nil {
			t.Errorf("%s: ran", name)
		}
		if _, err := os.Stat(cfg.out); err == nil {
			t.Errorf("%s: wrote %s", name, cfg.out)
		}
	}
}
