package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sweep"
	"repro/internal/telemetry"
)

// postJSON posts a body and returns the response; callers close it.
func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestWorkerShardClaimStreamAck(t *testing.T) {
	srv, ws := startWorker(t, sweep.Options{}, "montecarlo")
	spec := scenario.Spec{Protocol: "pow", Stake: 0.2, Blocks: 100, Trials: 10, Seed: 4}.Normalized()
	h := spec.MustHash()
	body, _ := json.Marshal(shardRequest{ShardID: ShardID([]string{h}), Scenarios: []scenario.Spec{spec}})

	resp := postJSON(t, srv.URL+"/v1/shard", string(body))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("claim status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var outcomes int
	var sum shardSummary
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var probe struct {
			Done *bool `json:"done"`
		}
		json.Unmarshal([]byte(line), &probe)
		if probe.Done != nil {
			if err := json.Unmarshal([]byte(line), &sum); err != nil {
				t.Fatal(err)
			}
			continue
		}
		var o sweep.Outcome
		if err := json.Unmarshal([]byte(line), &o); err != nil {
			t.Fatal(err)
		}
		if o.Hash != h {
			t.Errorf("outcome hash %q, want %q", o.Hash, h)
		}
		outcomes++
	}
	if outcomes != 1 || !sum.Done || sum.Streamed != 1 || sum.Scenarios != 1 {
		t.Fatalf("stream: %d outcomes, summary %+v", outcomes, sum)
	}
	if sum.TrialsRun != 10 {
		t.Errorf("summary trials = %d", sum.TrialsRun)
	}
	if ws.Done() != 1 || ws.InFlight() != 0 {
		t.Errorf("counters: done=%d inflight=%d", ws.Done(), ws.InFlight())
	}
}

func TestWorkerCountersAndEvalSpan(t *testing.T) {
	// The worker's view of one shard, from the surfaces that replace a
	// per-shard table: the counters healthz reads, and the eval span in
	// the tracer.
	tr := telemetry.NewTracer(nil)
	srv, ws := startTracedWorker(t, tr)
	spec := scenario.Spec{Protocol: "pow", Stake: 0.3, Blocks: 100, Trials: 10, Seed: 7}.Normalized()
	id := ShardID([]string{spec.MustHash()})
	body, _ := json.Marshal(shardRequest{ShardID: id, Scenarios: []scenario.Spec{spec}})

	claim := postJSON(t, srv.URL+"/v1/shard", string(body))
	io.Copy(io.Discard, claim.Body)
	claim.Body.Close()

	if ws.Claimed() != 1 || ws.Done() != 1 || ws.InFlight() != 0 || ws.Streamed() != 1 {
		t.Errorf("counters after claim: claimed=%d done=%d in-flight=%d streamed=%d",
			ws.Claimed(), ws.Done(), ws.InFlight(), ws.Streamed())
	}
	if ws.Rate() <= 0 {
		t.Errorf("Rate() = %v, want > 0 after a completed shard", ws.Rate())
	}
	requireNoOpenSpans(t, 0, tr)
	evals := spansByName(tr.Snapshot("").Spans, "eval")
	if len(evals) != 1 || evals[0].Attrs["shard"] != id ||
		evals[0].Attrs["status"] != "done" || evals[0].Attrs["streamed"] != "1" {
		t.Errorf("finished shard's eval span: %+v", evals)
	}
}

func TestWorkerShardRejectsBadClaims(t *testing.T) {
	srv, _ := startWorker(t, sweep.Options{}, "montecarlo")
	for name, body := range map[string]string{
		"not json":       "{",
		"missing id":     `{"scenarios":[{"protocol":"pow"}]}`,
		"empty shard":    `{"shard_id":"s1","scenarios":[]}`,
		"bad scenario":   `{"shard_id":"s1","scenarios":[{"protocol":"nope"}]}`,
		"unknown fields": `{"shard_id":"s1","scenarios":[{"protocol":"pow"}],"x":1}`,
	} {
		resp := postJSON(t, srv.URL+"/v1/shard", body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestLocalRunnerChainsObservers(t *testing.T) {
	var mu sync.Mutex
	var first, second int
	run := LocalRunner(sweep.Options{OnOutcome: func(sweep.Outcome) {
		mu.Lock()
		first++
		mu.Unlock()
	}})
	spec := scenario.Spec{Protocol: "pow", Stake: 0.2, Blocks: 50, Trials: 5}
	stats, err := run(context.Background(), []scenario.Spec{spec}, func(sweep.Outcome) {
		mu.Lock()
		second++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 1 {
		t.Errorf("observer chain: first=%d second=%d", first, second)
	}
	if stats.Scenarios != 1 || stats.Computed != 1 {
		t.Errorf("stats: %+v", stats)
	}
}
