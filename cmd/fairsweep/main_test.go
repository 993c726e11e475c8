package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden regenerates testdata/arena_golden.json in place.
var updateGolden = flag.Bool("update-golden", false, "rewrite the arena golden file")

// arenaSmokeGrid is the CI attack-smoke arena grid: the same invocation
// .github/workflows/ci.yml diffs against the committed golden, so keep
// the two in sync.
var arenaSmokeGrid = []string{
	"-protocols", "pow,mlpos",
	"-stake", "0.2,0.4",
	"-miners", "5", "-w", "0.01",
	"-trials", "25", "-blocks", "600", "-seed", "5",
	"-json",
}

// capture redirects the CLI's stdout writer for one test.
func capture(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old := stdout
	stdout = &buf
	t.Cleanup(func() { stdout = old })
	return &buf
}

// grid24 is the acceptance grid: 4 protocols × 3 stakes × 2 rewards = 24
// scenarios at a test-friendly scale.
var grid24 = []string{
	"-protocols", "pow,mlpos,slpos,cpos",
	"-stake", "0.1,0.2,0.3",
	"-w", "0.005,0.01",
	"-trials", "20", "-blocks", "150", "-seed", "13",
}

func TestExpandCommand(t *testing.T) {
	buf := capture(t)
	if err := run(append([]string{"expand"}, grid24...)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "expanded 24 scenarios") {
		t.Errorf("expand output missing count:\n%s", out)
	}
	for _, want := range []string{`"hash"`, `"protocol": "pow"`, `"protocol": "cpos"`, `"seed"`} {
		if !strings.Contains(out, want) {
			t.Errorf("expand output missing %q", want)
		}
	}
	// Expansion is byte-deterministic.
	buf2 := capture(t)
	if err := run(append([]string{"expand"}, grid24...)); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Error("expand output not deterministic")
	}
}

// TestRun24ScenarioGridDeterministicWithCache is the PR's acceptance
// check: a ≥24-scenario sweep completes, its fairness output is
// deterministic for a fixed seed, cache-hit stats are reported, and a
// repeated run against the cache recomputes zero scenarios.
func TestRun24ScenarioGridDeterministicWithCache(t *testing.T) {
	args := append([]string{"run"}, grid24...)
	args = append(args, "-cache", "64", "-repeat", "2")

	buf := capture(t)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	// The fairness table precedes the timing summaries and must be
	// deterministic across invocations.
	table := out[:strings.Index(out, "pass 1:")]
	if !strings.Contains(table, "slpos/w=0.01/a=0.3") {
		t.Errorf("table missing scenario rows:\n%s", table)
	}
	if got := strings.Count(table, "\n"); got < 24 {
		t.Errorf("table has %d lines, want >= 24 scenario rows", got)
	}
	// Pass 1 computes all 24, pass 2 recomputes zero.
	if !strings.Contains(out, "pass 1: 24 scenarios: 24 computed, 0 cache hits") {
		t.Errorf("cold pass stats missing:\n%s", out)
	}
	if !strings.Contains(out, "pass 2: 24 scenarios: 0 computed, 24 cache hits, 0 trials") {
		t.Errorf("warm pass should recompute zero scenarios:\n%s", out)
	}

	buf2 := capture(t)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	out2 := buf2.String()
	table2 := out2[:strings.Index(out2, "pass 1:")]
	if table != table2 {
		t.Errorf("fairness table not deterministic across runs:\n--- first\n%s\n--- second\n%s", table, table2)
	}
}

func TestRunPaperShapeOnGrid(t *testing.T) {
	// The sweep's verdicts carry the paper's ordering: at a=0.2 SL-PoS is
	// catastrophically unfair while PoW at the same scale is the fairest
	// column. Use the JSON output to assert on structured values.
	buf := capture(t)
	args := []string{"run", "-protocols", "pow,slpos", "-stake", "0.2", "-w", "0.01",
		"-trials", "60", "-blocks", "800", "-seed", "3", "-json"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Outcomes []struct {
			Spec    struct{ Protocol string }
			Verdict struct{ UnfairProbability float64 }
		}
	}
	data := buf.String()
	data = data[:strings.LastIndex(data, "}")+1]
	if err := json.Unmarshal([]byte(data), &rep); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	unfair := map[string]float64{}
	for _, o := range rep.Outcomes {
		unfair[o.Spec.Protocol] = o.Verdict.UnfairProbability
	}
	if !(unfair["slpos"] > unfair["pow"]) {
		t.Errorf("SL-PoS unfair %v should exceed PoW %v", unfair["slpos"], unfair["pow"])
	}
	if unfair["slpos"] < 0.8 {
		t.Errorf("SL-PoS unfair = %v, want ~1", unfair["slpos"])
	}
}

func TestRunWritesJSONReport(t *testing.T) {
	capture(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	args := []string{"run", "-protocols", "pow", "-stake", "0.2", "-w", "0.01",
		"-trials", "10", "-blocks", "100", "-out", out}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Outcomes []json.RawMessage `json:"outcomes"`
		Stats    json.RawMessage   `json:"stats"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if len(rep.Outcomes) != 1 || rep.Stats == nil {
		t.Errorf("report shape: %s", data)
	}
}

func TestSpecFileGridAndList(t *testing.T) {
	dir := t.TempDir()
	gridFile := filepath.Join(dir, "grid.json")
	gridJSON := `{"base":{"blocks":100,"trials":10},"protocols":["pow","mlpos"],"stake":[0.2,0.3]}`
	if err := os.WriteFile(gridFile, []byte(gridJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	buf := capture(t)
	if err := run([]string{"expand", "-spec", gridFile}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "expanded 4 scenarios") {
		t.Errorf("grid file expansion:\n%s", buf.String())
	}

	listFile := filepath.Join(dir, "list.json")
	listJSON := `[{"protocol":"pow","blocks":100,"trials":10},{"protocol":"slpos","blocks":100,"trials":10}]`
	if err := os.WriteFile(listFile, []byte(listJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	buf2 := capture(t)
	if err := run([]string{"run", "-spec", listFile}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "2 scenarios") {
		t.Errorf("list file run:\n%s", buf2.String())
	}

	// Bad spec files fail loudly.
	badFile := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badFile, []byte(`{"base":{},"protocls":["pow"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	capture(t)
	if err := run([]string{"expand", "-spec", badFile}); err == nil {
		t.Error("typo axis in grid file should error")
	}
}

func TestBenchCommand(t *testing.T) {
	buf := capture(t)
	args := []string{"bench", "-protocols", "pow,mlpos", "-stake", "0.2", "-w", "0.01",
		"-trials", "10", "-blocks", "100"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "cold: 2 scenarios: 2 computed") {
		t.Errorf("bench cold pass:\n%s", out)
	}
	if !strings.Contains(out, "warm: 2 scenarios: 0 computed, 2 cache hits") {
		t.Errorf("bench warm pass:\n%s", out)
	}
	if !strings.Contains(out, "scenarios/s") {
		t.Error("bench missing throughput")
	}
}

func TestBadFlagsAndCommands(t *testing.T) {
	capture(t)
	if err := run(nil); err == nil {
		t.Error("no command should error")
	}
	if err := run([]string{"frobnicate"}); err == nil {
		t.Error("unknown command should error")
	}
	if err := run([]string{"run", "-w", "abc"}); err == nil {
		t.Error("bad float axis should error")
	}
	if err := run([]string{"run", "-miners", "x"}); err == nil {
		t.Error("bad int axis should error")
	}
	if err := run([]string{"run", "-protocols", ""}); err == nil {
		t.Error("empty scenario list should error")
	}
	if err := run([]string{"run", "-spec", "/nonexistent/file.json"}); err == nil {
		t.Error("missing spec file should error")
	}
	if err := run([]string{"help"}); err != nil {
		t.Errorf("help errored: %v", err)
	}
}

// captureErr redirects the CLI's stderr writer for one test.
func captureErr(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	old := stderr
	stderr = &buf
	t.Cleanup(func() { stderr = old })
	return &buf
}

func TestRunDiskCacheSurvivesInvocations(t *testing.T) {
	// Two separate CLI invocations against the same -cache-dir stand in
	// for two processes: the second recomputes nothing.
	dir := filepath.Join(t.TempDir(), "cache")
	args := []string{"run", "-protocols", "pow,mlpos", "-stake", "0.2,0.3",
		"-trials", "15", "-blocks", "120", "-seed", "21", "-cache-dir", dir}
	buf := capture(t)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pass 1: 4 scenarios: 4 computed, 0 cache hits") {
		t.Fatalf("first invocation not cold:\n%s", buf.String())
	}
	buf2 := capture(t)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "pass 1: 4 scenarios: 0 computed, 4 cache hits, 0 trials") {
		t.Errorf("second invocation should be all disk hits:\n%s", buf2.String())
	}
}

func TestRunTheoryBackend(t *testing.T) {
	buf := capture(t)
	args := []string{"run", "-backend", "theory", "-protocols", "pow,mlpos,cpos",
		"-stake", "0.2", "-w", "0.01", "-blocks", "5000", "-trials", "1", "-json"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"backend": "theory"`) {
		t.Errorf("missing backend marker:\n%s", out)
	}
	if !strings.Contains(out, `"trials_run": 0`) {
		t.Errorf("theory backend should run zero trials:\n%s", out)
	}
}

func TestRunUnknownBackend(t *testing.T) {
	capture(t)
	if err := run([]string{"run", "-backend", "quantum"}); err == nil {
		t.Error("unknown backend should error")
	}
}

func TestStrategyFlagExpandsPerCandidate(t *testing.T) {
	// -strategy sweeps the adversary axis: one grid expansion per entry,
	// concatenated.
	buf := capture(t)
	args := []string{"expand", "-protocols", "pow", "-stake", "0.3,0.4", "-w", "0.01",
		"-miners", "4", "-trials", "10", "-blocks", "100",
		"-strategy", "selfish;selfish-delay:g=0.5,d=3"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "expanded 4 scenarios") {
		t.Errorf("want 2 stakes x 2 strategies = 4 scenarios:\n%s", out)
	}
	for _, want := range []string{`"strategy": "selfish"`, `"strategy": "selfish-delay"`, `"delay": 3`} {
		if !strings.Contains(out, want) {
			t.Errorf("expansion missing %q:\n%s", want, out)
		}
	}
}

func TestSelfishFlagIsStrategySynonym(t *testing.T) {
	// Bare -selfish N must expand to exactly what -strategy selfish does:
	// same cells, same hashes.
	common := []string{"-protocols", "pow", "-stake", "0.4", "-miners", "4",
		"-trials", "10", "-blocks", "100", "-seed", "7"}
	buf := capture(t)
	if err := run(append([]string{"expand", "-selfish", "0"}, common...)); err != nil {
		t.Fatal(err)
	}
	old := buf.String()
	buf2 := capture(t)
	if err := run(append([]string{"expand", "-strategy", "selfish"}, common...)); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != old {
		t.Errorf("-selfish 0 and -strategy selfish diverge:\n--- selfish\n%s\n--- strategy\n%s", old, buf2.String())
	}
}

func TestStrategyFlagErrors(t *testing.T) {
	capture(t)
	if err := run([]string{"expand", "-strategy", "petty-compliant"}); err == nil {
		t.Error("unknown strategy should error")
	} else if !strings.Contains(err.Error(), "selfish") {
		t.Errorf("unknown-strategy error should list registered strategies, got: %v", err)
	}
	if err := run([]string{"expand", "-gamma", "0.5"}); err == nil {
		t.Error("-gamma without -strategy/-selfish should error")
	}
}

func TestArenaCommandGolden(t *testing.T) {
	// The arena smoke grid CI diffs against the committed golden: the
	// equilibrium report must be bit-identical run to run. Regenerate with
	//   go test ./cmd/fairsweep -run TestArenaCommandGolden -update-golden
	buf := capture(t)
	if err := run(append([]string{"arena"}, arenaSmokeGrid...)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	start := strings.Index(out, "[")
	if start < 0 {
		t.Fatalf("no JSON payload in output:\n%s", out)
	}
	got := out[start:]
	golden := filepath.Join("testdata", "arena_golden.json")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("arena report drifted from testdata/arena_golden.json (rerun with -update-golden if intended)\n--- got\n%s\n--- want\n%s", got, want)
	}
	// Sanity on the content, not just the bytes: the 40% PoW miner
	// deviates, the 20% one and the PoS cells stay honest.
	var rows []struct {
		Name        string `json:"name"`
		Equilibrium struct {
			Deviators []int `json:"deviators"`
			Converged bool  `json:"converged"`
		} `json:"equilibrium"`
	}
	if err := json.Unmarshal([]byte(got), &rows); err != nil {
		t.Fatalf("bad arena JSON: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if !r.Equilibrium.Converged {
			t.Errorf("%s: dynamics did not converge", r.Name)
		}
		wantDeviators := 0
		if strings.HasPrefix(r.Name, "pow") && strings.Contains(r.Name, "a=0.4") {
			wantDeviators = 1
		}
		if len(r.Equilibrium.Deviators) != wantDeviators {
			t.Errorf("%s: deviators = %v, want %d", r.Name, r.Equilibrium.Deviators, wantDeviators)
		}
	}
}

func TestArenaRejectsAdversaryFlags(t *testing.T) {
	capture(t)
	for _, args := range [][]string{
		{"arena", "-strategy", "selfish"},
		{"arena", "-selfish", "0"},
		{"arena", "-gamma", "0.5"},
		{"arena", "-fork-rate", "0.1"},
		{"arena", "-withhold", "100"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "does not apply to arena") {
			t.Errorf("run(%v) = %v, want arena-conflict error", args, err)
		}
	}
}

func TestArenaTableOutput(t *testing.T) {
	buf := capture(t)
	args := []string{"arena", "-protocols", "pow", "-stake", "0.4", "-miners", "5",
		"-trials", "20", "-blocks", "400", "-seed", "5"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	// The 40% miner adopts one of the race strategies; selfish and
	// selfish-delay at zero parameters are the same classic attack, so
	// either may win the sampled comparison.
	out := buf.String()
	for _, want := range []string{"Equilibrium", "@0", "scenarios"} {
		if !strings.Contains(out, want) {
			t.Errorf("arena table missing %q:\n%s", want, out)
		}
	}
}

func TestRunNDJSONStream(t *testing.T) {
	buf := capture(t)
	errBuf := captureErr(t)
	args := []string{"run", "-protocols", "pow,mlpos", "-stake", "0.2,0.3",
		"-trials", "10", "-blocks", "100", "-seed", "2", "-ndjson"}
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("streamed %d NDJSON lines, want 4:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var o struct {
			Hash    string          `json:"hash"`
			Verdict json.RawMessage `json:"verdict"`
		}
		if err := json.Unmarshal([]byte(line), &o); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if o.Hash == "" || o.Verdict == nil {
			t.Errorf("incomplete outcome line: %s", line)
		}
	}
	if !strings.Contains(errBuf.String(), "pass 1: 4 scenarios") {
		t.Errorf("summary should go to stderr in -ndjson mode:\n%s", errBuf.String())
	}
}

func TestRunAdaptiveDiskCacheRepeatIsAllHits(t *testing.T) {
	// The adaptive evaluator's cache namespace is not a plain file name;
	// the disk cache must still serve the second pass in full.
	dir := filepath.Join(t.TempDir(), "cache")
	buf := capture(t)
	if err := run([]string{"run", "-adaptive", "-cache-dir", dir, "-repeat", "2",
		"-protocols", "pow,mlpos", "-stake", "0.2,0.3", "-trials", "200", "-blocks", "300"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "pass 2: 4 scenarios: 0 computed, 4 cache hits, 0 trials") {
		t.Errorf("adaptive repeat against -cache-dir recomputed:\n%s", buf.String())
	}
}
