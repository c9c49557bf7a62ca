// Command benchpairs runs the repository benchmark in alternating
// parent-vs-change pairs and turns the runs into tables. It reads
// benchmark/run.sh and BENCHMARK.json and changes neither.
//
// Run pairs from the root of the checkout (appends to the file; the parent
// checkout is built in a git worktree under .bench_build/ unless -base-dir
// names a git checkout of it; each run lasts BENCHMARK.json's run_seconds):
//
//	go run ./tools/benchpairs -base <rev> -workload serve-paper -seed 1 -pairs 6 \
//	    [-gap 5] [-series name] -out artifacts/bench_prN/pairs.tsv
//
// Print the tables (per series, workload and seed: each side's quartiles, the
// change of the medians, in how many pairs the change won; then whether all
// runs produced the same outputs, and a verdict per metric from
// BENCHMARK.json's direction and bound):
//
//	go run ./tools/benchpairs -table artifacts/bench_prN/pairs.tsv [-series a,b]
//
// Pair k runs the parent first when k is odd and the change first when it is
// even, so drift of the host over a series falls on both sides alike.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// columns is the pairs.tsv schema: one line per benchmark run.
var columns = []string{"series", "workload", "seed", "pair", "side", "ran",
	"host_us_per_query", "capacity_mps", "lat_p50_ms", "peak_rss_mb", "setup_s",
	"sim_resp_mean_s", "sim_cons_allocsat", "sim_prov_sat", "failed", "correct", "digest"}

// timed are the timing metrics the table prints, in its row order, with the
// factor a metric is shown at (setup_s in ms). Directions and bounds come
// from BENCHMARK.json.
var timed = []struct {
	name  string
	scale float64
}{{"host_us_per_query", 1}, {"capacity_mps", 1}, {"lat_p50_ms", 1}, {"peak_rss_mb", 1}, {"setup_s", 1000}}

// identity are the columns every run of a group must agree on.
var identity = []string{"digest", "sim_resp_mean_s", "sim_cons_allocsat", "sim_prov_sat", "failed", "correct"}

func main() {
	var (
		table    = flag.String("table", "", "print the tables of this pairs.tsv and exit")
		series   = flag.String("series", "", "with -table: only these comma-separated series; when running: the series name (default: run)")
		base     = flag.String("base", "", "the parent revision")
		baseDir  = flag.String("base-dir", "", "an existing git checkout of the parent (default: a git worktree of -base under .bench_build/)")
		workload = flag.String("workload", "", "comma-separated workloads to run")
		seed     = flag.Uint64("seed", 1, "benchmark seed")
		pairs    = flag.Int("pairs", 6, "pairs per workload")
		gap      = flag.Float64("gap", 0, "idle seconds before every run")
		out      = flag.String("out", "", "pairs.tsv to append to")
	)
	flag.Parse()
	spec, err := readSpec("BENCHMARK.json")
	if err == nil && *table != "" {
		err = printTable(os.Stdout, *table, splitList(*series), spec.metrics)
	} else if err == nil {
		err = runPairs(os.Stdout, runConfig{base: *base, baseDir: *baseDir, workloads: splitList(*workload),
			seed: *seed, pairs: *pairs, runSeconds: spec.runSeconds, gap: *gap, series: *series, out: *out})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ",")
}

// metricSpec is what BENCHMARK.json says of one end-to-end metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is what the tool reads of BENCHMARK.json: the end-to-end
// metrics by name, and how long one run measures.
type benchSpec struct {
	metrics    map[string]metricSpec
	runSeconds float64
}

func readSpec(path string) (benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return benchSpec{}, err
	}
	var doc struct {
		RunSeconds float64      `json:"run_seconds"`
		EndToEnd   []metricSpec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return benchSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	spec := benchSpec{metrics: map[string]metricSpec{}, runSeconds: doc.RunSeconds}
	for _, m := range doc.EndToEnd {
		spec.metrics[m.Name] = m
	}
	for _, m := range timed {
		if _, ok := spec.metrics[m.name]; !ok {
			return benchSpec{}, fmt.Errorf("%s lists no end-to-end metric %s", path, m.name)
		}
	}
	return spec, nil
}

// --- running pairs ---

type runConfig struct {
	base, baseDir string
	workloads     []string
	seed          uint64
	pairs         int
	runSeconds    float64 // BENCHMARK.json's, for the header: run.sh applies it
	gap           float64
	series, out   string
	changeDir     string // default: the current directory
}

func runPairs(log io.Writer, cfg runConfig) error {
	if cfg.out == "" || len(cfg.workloads) == 0 || cfg.pairs < 1 {
		return errors.New("running pairs needs -out, -workload and -pairs ≥ 1 (or -table to print)")
	}
	if cfg.base == "" && cfg.baseDir == "" {
		return errors.New("running pairs needs -base or -base-dir")
	}
	if cfg.series == "" {
		cfg.series = "run"
	}
	if cfg.changeDir == "" {
		cfg.changeDir = "."
	}
	if cfg.baseDir == "" {
		dir, err := worktree(cfg.changeDir, cfg.base)
		if err != nil {
			return err
		}
		cfg.baseDir = dir
	}
	parent, err := describe(cfg.baseDir)
	if err != nil {
		return fmt.Errorf("parent checkout: %w", err)
	}
	if cfg.base != "" {
		if sha, err := git(cfg.baseDir, "rev-parse", "--verify", cfg.base+"^{commit}"); err != nil || !strings.HasPrefix(parent, sha) {
			return fmt.Errorf("parent checkout %s holds %s, not -base %s", cfg.baseDir, parent, cfg.base)
		}
	}
	change, err := describe(cfg.changeDir)
	if err != nil {
		return fmt.Errorf("change checkout: %w", err)
	}
	f, err := os.OpenFile(cfg.out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Size() == 0 {
		fmt.Fprintln(f, strings.Join(columns, "\t"))
	}
	fmt.Fprintf(f, "# series %s: parent %s, change %s; %s\n", cfg.series, parent, change, host())
	fmt.Fprintf(f, "# command: bash benchmark/run.sh --workload W --seed %d --trace 0 (run_seconds %g); gap %gs\n",
		cfg.seed, cfg.runSeconds, cfg.gap)
	sides := map[string]string{"parent": cfg.baseDir, "change": cfg.changeDir}
	for _, w := range cfg.workloads {
		for k := 1; k <= cfg.pairs; k++ {
			order := []string{"parent", "change"}
			if k%2 == 0 {
				order[0], order[1] = order[1], order[0]
			}
			for i, side := range order {
				time.Sleep(time.Duration(cfg.gap * float64(time.Second)))
				row, err := runOnce(sides[side], cfg, w)
				if err != nil {
					return fmt.Errorf("%s pair %d %s: %w", w, k, side, err)
				}
				row["series"], row["workload"], row["seed"] = cfg.series, w, strconv.FormatUint(cfg.seed, 10)
				row["pair"], row["side"], row["ran"] = strconv.Itoa(k), side, [2]string{"first", "second"}[i]
				line := make([]string, len(columns))
				for j, c := range columns {
					line[j] = row[c]
				}
				fmt.Fprintln(f, strings.Join(line, "\t"))
				fmt.Fprintf(log, "%s pair %d %s: host_us_per_query %s capacity_mps %s\n", w, k, side, row["host_us_per_query"], row["capacity_mps"])
			}
		}
	}
	return nil
}

// worktree checks rev out, detached, at .bench_build/base-<commit> of the
// repository at dir, or reuses that checkout if it exists.
func worktree(dir, rev string) (string, error) {
	sha, err := git(dir, "rev-parse", "--verify", rev+"^{commit}")
	if err != nil {
		return "", err
	}
	path, err := filepath.Abs(filepath.Join(dir, ".bench_build", "base-"+sha))
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	if _, err := git(dir, "worktree", "add", "--detach", path, sha); err != nil {
		return "", err
	}
	return path, nil
}

func git(dir string, args ...string) (string, error) {
	out, err := exec.Command("git", append([]string{"-C", dir}, args...)...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// commit names what dir holds: its commit, "+dirty" when the tree differs
// from it, tracked files or untracked ones git does not ignore. A directory
// that is not a git checkout is an error: nothing would say what it holds.
func commit(dir string) (string, error) {
	sha, err := git(dir, "rev-parse", "HEAD")
	if err != nil {
		return "", fmt.Errorf("%s is not a git checkout: %w", dir, err)
	}
	if status, _ := git(dir, "status", "--porcelain"); status != "" {
		sha += "+dirty"
	}
	return sha, nil
}

// describe is commit with, for a dirty tree, the SHA-256 of what makes it
// dirty: the binary diff of the tracked files against HEAD, then every
// untracked file git does not ignore, by path and content. Two dirty trees
// at one commit read apart.
func describe(dir string) (string, error) {
	name, err := commit(dir)
	if err != nil || !strings.HasSuffix(name, "+dirty") {
		return name, err
	}
	h := sha256.New()
	diff, err := git(dir, "diff", "--binary", "HEAD")
	if err != nil {
		return "", err
	}
	io.WriteString(h, diff)
	untracked, err := git(dir, "ls-files", "-z", "--others", "--exclude-standard")
	if err != nil {
		return "", err
	}
	for _, path := range strings.Split(untracked, "\x00") {
		if path == "" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, path))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "\x00%s\x00%d\x00", path, len(data))
		h.Write(data)
	}
	return fmt.Sprintf("%s (content sha256 %x)", name, h.Sum(nil)), nil
}

// host describes what the runs shared: cores, GOMAXPROCS, whether the CPU
// has FMA (it decides the low bits of math.Exp, so of every digest), and
// the toolchain.
func host() string {
	procs := os.Getenv("GOMAXPROCS")
	if procs == "" {
		procs = strconv.Itoa(runtime.NumCPU())
	}
	fma := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		fma = strconv.FormatBool(strings.Contains(string(info), " fma"))
	}
	goVersion := runtime.Version()
	if out, err := exec.Command("go", "env", "GOVERSION").Output(); err == nil {
		goVersion = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("nproc %d, GOMAXPROCS %s, fma %s, %s", runtime.NumCPU(), procs, fma, goVersion)
}

// runOnce runs the benchmark on one workload in dir and reads its report:
// the "<workload> digest <hex>" line and the JSON object on the last line.
func runOnce(dir string, cfg runConfig, workload string) (map[string]string, error) {
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload, "--seed", strconv.FormatUint(cfg.seed, 10), "--trace", "0")
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	row := map[string]string{}
	var last string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 3 && f[0] == workload && f[1] == "digest" {
			row["digest"] = f[2]
		}
		if strings.HasPrefix(sc.Text(), "{") {
			last = sc.Text()
		}
	}
	var rep struct {
		Correct bool   `json:"correct"`
		Failed  uint64 `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("no report on the last line: %w", err)
	}
	for _, c := range columns[6:14] {
		m, ok := rep.Metrics[c]
		if !ok {
			return nil, fmt.Errorf("report has no %s", c)
		}
		row[c] = strconv.FormatFloat(m.Value, 'g', -1, 64)
	}
	row["failed"], row["correct"] = strconv.FormatUint(rep.Failed, 10), strconv.FormatBool(rep.Correct)
	return row, nil
}

// --- tables ---

// group is one (series, workload, seed) of a pairs file, its pairs in the
// order they first appear.
type group struct {
	series, workload, seed string
	pairs                  []map[string]map[string]string // side → row
}

func (g *group) full() []map[string]map[string]string {
	var out []map[string]map[string]string
	for _, p := range g.pairs {
		if p["parent"] != nil && p["change"] != nil {
			out = append(out, p)
		}
	}
	return out
}

// readPairs reads a pairs file into groups, in the order they first
// appear; lines starting with # are comments.
func readPairs(path string) ([]*group, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var header []string
	var groups []*group
	byKey, pairIndex := map[string]*group{}, map[string]int{}
	for n, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, "\t")
		if header == nil {
			header = fields
			continue
		}
		if len(fields) != len(header) {
			return nil, fmt.Errorf("%s:%d: %d fields, header has %d", path, n+1, len(fields), len(header))
		}
		row := map[string]string{}
		for i, h := range header {
			row[h] = fields[i]
		}
		key := row["series"] + "\x00" + row["workload"] + "\x00" + row["seed"]
		g := byKey[key]
		if g == nil {
			g = &group{series: row["series"], workload: row["workload"], seed: row["seed"]}
			byKey[key] = g
			groups = append(groups, g)
		}
		i, ok := pairIndex[key+"\x00"+row["pair"]]
		if !ok {
			i = len(g.pairs)
			pairIndex[key+"\x00"+row["pair"]] = i
			g.pairs = append(g.pairs, map[string]map[string]string{})
		}
		g.pairs[i][row["side"]] = row
	}
	return groups, nil
}

// quantile is the p-quantile of vs by linear interpolation between order
// statistics.
func quantile(vs []float64, p float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := float64(len(s)-1) * p
	f := int(k)
	c := min(f+1, len(s)-1)
	return s[f] + (s[c]-s[f])*(k-float64(f))
}

// num prints a value with four significant digits, or as an integer from
// 1000 up.
func num(v float64) string {
	if v >= 1000 || v <= -1000 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return formatG4(v)
}

// formatG4 is C's %.4g: four significant digits, trailing zeros dropped,
// exponent form below 1e-4 or from 1e4, with a signed exponent of at least
// two digits.
func formatG4(v float64) string {
	if v == 0 || v != v {
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
	e := strconv.FormatFloat(v, 'e', 3, 64)
	exp, _ := strconv.Atoi(e[strings.IndexByte(e, 'e')+1:])
	if exp < -4 || exp >= 4 {
		mant, tail := e[:strings.IndexByte(e, 'e')], e[strings.IndexByte(e, 'e'):]
		if strings.Contains(mant, ".") {
			mant = strings.TrimRight(strings.TrimRight(mant, "0"), ".")
		}
		return mant + tail
	}
	s := strconv.FormatFloat(v, 'f', 3-exp, 64)
	if strings.Contains(s, ".") {
		s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
	}
	return s
}

// sideValues returns one metric of one side over the pairs, scaled.
func sideValues(pairs []map[string]map[string]string, side, metric string, scale float64) []float64 {
	vs := make([]float64, len(pairs))
	for i, p := range pairs {
		v, _ := strconv.ParseFloat(p[side][metric], 64)
		vs[i] = v * scale
	}
	return vs
}

// comparison is one metric of one group across its full pairs.
type comparison struct {
	parentQ, changeQ [3]float64 // q1, median, q3
	wins, n          int        // pairs in which the change was better
	sign             float64    // +1 when higher is better
}

func compare(pairs []map[string]map[string]string, metric string, scale float64, spec metricSpec) comparison {
	c := comparison{n: len(pairs), sign: -1}
	if spec.Better == "higher" {
		c.sign = 1
	}
	pv, cv := sideValues(pairs, "parent", metric, scale), sideValues(pairs, "change", metric, scale)
	for i := range pv {
		if (cv[i]-pv[i])*c.sign > 0 {
			c.wins++
		}
	}
	for i, p := range []float64{.25, .5, .75} {
		c.parentQ[i], c.changeQ[i] = quantile(pv, p), quantile(cv, p)
	}
	return c
}

// change is the relative change of the medians, in percent.
func (c comparison) change() float64 { return (c.changeQ[1] - c.parentQ[1]) / c.parentQ[1] * 100 }

// verdict judges a metric as the repository's rules do: worse when the
// median moved the wrong way by more than BENCHMARK.json's bound; better
// when the change won at least 9 of 10 pairs and the medians are further
// apart than the parent's interquartile distance; level otherwise.
func (c comparison) verdict(spec metricSpec) string {
	delta := (c.changeQ[1] - c.parentQ[1]) * c.sign
	switch {
	case -delta > spec.Bound*math.Abs(c.parentQ[1]):
		return "WORSE"
	case 10*c.wins >= 9*c.n && delta > c.parentQ[2]-c.parentQ[0]:
		return "better"
	}
	return "level"
}

func printTable(w io.Writer, path string, only []string, spec map[string]metricSpec) error {
	groups, err := readPairs(path)
	if err != nil {
		return err
	}
	if len(only) > 0 {
		keep := groups[:0]
		for _, g := range groups {
			for _, s := range only {
				if g.series == s {
					keep = append(keep, g)
				}
			}
		}
		groups = keep
	}
	fmt.Fprintln(w, "| series | workload, seed | metric | parent q1 / median / q3 (IQR) | change q1 / median / q3 (IQR) | median change | change better in |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, g := range groups {
		full := g.full()
		if len(full) == 0 {
			continue
		}
		for _, m := range timed {
			c := compare(full, m.name, m.scale, spec[m.name])
			name := "`" + m.name + "`"
			if m.scale != 1 {
				name = "`" + m.name + " (ms)`"
			}
			p, q := c.parentQ, c.changeQ
			fmt.Fprintf(w, "| %s | %s, %s | %s | %s / **%s** / %s (%s) | %s / **%s** / %s (%s) | %+.1f %% | %d / %d |\n",
				g.series, g.workload, g.seed, name, num(p[0]), num(p[1]), num(p[2]), num(p[2]-p[0]),
				num(q[0]), num(q[1]), num(q[2]), num(q[2]-q[0]), c.change(), c.wins, c.n)
		}
	}
	fmt.Fprintln(w)
	for _, g := range groups {
		var runs []map[string]string
		for _, p := range g.pairs {
			for _, side := range []string{"parent", "change"} {
				if p[side] != nil {
					runs = append(runs, p[side])
				}
			}
		}
		same := true
		for _, r := range runs {
			for _, k := range identity {
				same = same && r[k] == runs[0][k]
			}
		}
		full := g.full()
		secondSlower := 0
		for _, p := range full {
			first, second := p["parent"], p["change"]
			if first["ran"] > second["ran"] {
				first, second = second, first
			}
			a, _ := strconv.ParseFloat(first["host_us_per_query"], 64)
			b, _ := strconv.ParseFloat(second["host_us_per_query"], 64)
			if b > a {
				secondSlower++
			}
		}
		outputs := "identical"
		if !same {
			outputs = "DIFFER"
		}
		fmt.Fprintf(w, "%s %s seed %s: %d runs, outputs %s; second-run side slower in %d / %d pairs\n",
			g.series, g.workload, g.seed, len(runs), outputs, secondSlower, len(full))
	}
	fmt.Fprintln(w)
	for _, g := range groups {
		full := g.full()
		if len(full) == 0 {
			continue
		}
		var parts []string
		for _, m := range timed {
			c := compare(full, m.name, m.scale, spec[m.name])
			parts = append(parts, fmt.Sprintf("%s %s (%+.1f %%, wins %d of %d)", m.name, c.verdict(spec[m.name]), c.change(), c.wins, c.n))
		}
		fmt.Fprintf(w, "verdict %s %s seed %s: %s\n", g.series, g.workload, g.seed, strings.Join(parts, "; "))
	}
	return nil
}
