package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/scenario"
	"repro/internal/sweep"
)

// workerStub answers a coordinator's requests in process, as a healthy
// montecarlo worker would, except that every shard claim gets stream
// for its response body. A loopback server would cost each execution a
// connection: thousands a second, all left in TIME-WAIT.
type workerStub []byte

func (stream workerStub) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	body := []byte(`{"status":"ok","backend":"montecarlo"}`)
	if r.URL.Path == "/v1/shard" {
		body = stream
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{},
		Body: io.NopCloser(bytes.NewReader(body)), Request: r}, nil
}

// FuzzShardStream answers the coordinator's claim with arbitrary bytes
// as its one worker's /v1/shard stream, with no retries. The run either
// fails, or returns every position filled with an outcome that passes
// checkOutcome for that position's hash; either way it never panics or
// hangs, and its cache holds only checked outcomes.
func FuzzShardStream(f *testing.F) {
	specs := []scenario.Spec{
		{Protocol: "pow", Stake: 0.2, Blocks: 50, Trials: 4, Seed: 3},
		{Protocol: "mlpos", Stake: 0.3, Blocks: 50, Trials: 4, Seed: 3},
	}
	local, err := sweep.Run(specs, sweep.Options{})
	if err != nil {
		f.Fatal(err)
	}
	hashes := []string{local.Outcomes[0].Hash, local.Outcomes[1].Hash}
	stream := func(outs []sweep.Outcome, shardID string) []byte {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		for _, o := range outs {
			enc.Encode(o)
		}
		enc.Encode(shardSummary{Done: true, ShardID: shardID, Scenarios: len(specs), Streamed: len(outs)})
		return b.Bytes()
	}
	honest := stream(local.Outcomes, ShardID(hashes))
	tampered := local.Outcomes[0]
	tampered.Spec.Stakes = []float64{0.9, 0.1}
	f.Add(honest)
	f.Add(honest[:len(honest)/3]) // a torn line
	f.Add(stream(local.Outcomes, ShardID(hashes[:1])))
	f.Add(stream([]sweep.Outcome{tampered, local.Outcomes[1]}, ShardID(hashes)))

	f.Fuzz(func(t *testing.T, data []byte) {
		cache := sweep.NewCache(8)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rep, err := Run(ctx, specs, Options{
			Workers: []string{"http://worker"}, ShardSize: len(specs), MaxAttempts: 1,
			Cache: cache, HTTPClient: &http.Client{Transport: workerStub(data)},
		})
		if ctx.Err() != nil {
			t.Fatalf("run did not finish: %v", err)
		}
		if err == nil {
			for i, o := range rep.Outcomes {
				if o.Hash != hashes[i] {
					t.Fatalf("position %d holds outcome %.12s, want %.12s", i, o.Hash, hashes[i])
				}
				if err := checkOutcome(o, "montecarlo"); err != nil {
					t.Fatalf("position %d: merged an unchecked outcome: %v", i, err)
				}
			}
		}
		for _, h := range hashes {
			if o, ok := cache.Get(sweep.CacheKey("montecarlo", h)); ok {
				if o.Hash != h {
					t.Fatalf("cache entry %.12s holds outcome %.12s", h, o.Hash)
				}
				if err := checkOutcome(o, "montecarlo"); err != nil {
					t.Fatalf("cached an unchecked outcome: %v", err)
				}
			}
		}
	})
}
