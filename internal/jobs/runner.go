package jobs

import (
	"context"
	"net/http"

	"repro/internal/cachestore"
	"repro/internal/cluster"
	"repro/internal/scenario"
	"repro/internal/sweep"
)

// SweepRunner executes one job's scenario list under a dispatch gate,
// reading and writing results through the job's tenant-namespaced cache
// (nil when the manager has no base cache). Implementations must keep
// local-sweep semantics: outcomes in input order, cancellation
// returning the partial report with ctx.Err(), and completed outcomes
// bit-identical to sweep.RunContext's for the same list.
type SweepRunner func(ctx context.Context, specs []scenario.Spec,
	gate cluster.DispatchGate, cache sweep.CacheStore) (*sweep.Report, error)

// ClusterRunner executes jobs on the shared worker pool: each job is
// one cluster.Run whose shard dispatch the manager's scheduler gates.
// base is copied per job; its Gate and (when the manager namespaces a
// cache) Cache fields are overridden. When base.HTTPClient is nil, the
// runner builds one keep-alive client and every job dials the workers
// through it, instead of through a pool of its own.
//
// A job's shards carry its tenant, and a worker computes them without
// its own cache. Each outcome is therefore written once, into the
// tenant's namespace of the manager's cache, and workers that share
// that cache's directory keep no copy another tenant could hit.
func ClusterRunner(base cluster.Options) SweepRunner {
	if base.HTTPClient == nil {
		base.HTTPClient = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	}
	return func(ctx context.Context, specs []scenario.Spec,
		gate cluster.DispatchGate, cache sweep.CacheStore) (*sweep.Report, error) {
		o := base
		o.Gate = gate
		if cache != nil {
			o.Cache = cache
		}
		return cluster.Run(ctx, specs, o)
	}
}

// LocalRunner executes jobs in-process, pacing through the gate in
// chunks of at most chunk scenarios (0 = 4) so concurrent jobs
// interleave even without a cluster: each chunk asks the gate for
// dispatch, runs sweep.RunContext on the granted slice, and merges the
// partial reports in input order. Pair it with Config.Capacity nil
// (capacity 1) for strict fair interleaving.
func LocalRunner(opts sweep.Options, chunk int) SweepRunner {
	if chunk <= 0 {
		chunk = 4
	}
	return func(ctx context.Context, specs []scenario.Spec,
		gate cluster.DispatchGate, cache sweep.CacheStore) (*sweep.Report, error) {
		o := opts
		if cache != nil {
			o.Cache = cache
		}
		rep := &sweep.Report{Outcomes: make([]sweep.Outcome, 0, len(specs))}
		for pos := 0; pos < len(specs); {
			want := len(specs) - pos
			if want > chunk {
				want = chunk
			}
			granted, release, err := gate.Acquire(ctx, want)
			if err == nil && granted <= 0 {
				release()
				err = context.Canceled
			}
			if err != nil {
				rep.Partial = true
				rep.Stats.Scenarios = len(specs)
				return rep, err
			}
			part, err := sweep.RunContext(ctx, specs[pos:pos+granted], o)
			release()
			if part != nil {
				rep.Outcomes = append(rep.Outcomes, part.Outcomes...)
				rep.Stats.CacheHits += part.Stats.CacheHits
				rep.Stats.Computed += part.Stats.Computed
				rep.Stats.TrialsRun += part.Stats.TrialsRun
				rep.Stats.WallMS += part.Stats.WallMS
			}
			if err != nil {
				rep.Partial = true
				rep.Stats.Scenarios = len(specs)
				return rep, err
			}
			pos += granted
		}
		rep.Stats.Scenarios = len(specs)
		return rep, nil
	}
}

// TenantCache wraps a base cache so one tenant's entries live under
// their own namespace: key "backend:hash" becomes
// "t-<tenant>:backend:hash", which the disk store lays out as a
// per-tenant directory tree. The tenant goes through the disk store's
// cachestore.Segment encoding ("" reads as "default"), so every tenant
// name — ':' included — gets a namespace of its own. Tenants therefore
// never warm-start from (or leak timing about) each other's results.
func TenantCache(tenant string, base sweep.CacheStore) sweep.CacheStore {
	if tenant == "" {
		tenant = "default"
	}
	return &tenantCache{prefix: "t-" + cachestore.Segment(tenant) + ":", base: base}
}

type tenantCache struct {
	prefix string
	base   sweep.CacheStore
}

func (c *tenantCache) Get(key string) (sweep.Outcome, bool) { return c.base.Get(c.prefix + key) }
func (c *tenantCache) Add(key string, o sweep.Outcome)      { c.base.Add(c.prefix+key, o) }
func (c *tenantCache) Len() int                             { return c.base.Len() }
