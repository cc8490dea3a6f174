package serve

import (
	"context"
	"sync/atomic"
	"time"

	"sortinghat/internal/obs"
)

// phaseAcc accumulates per-phase nanoseconds across all worker-pool
// columns of one request, so the flight recorder can say where a slow
// request's time went. The replica's infer function attaches one to the
// request context; workers add into it with plain atomics. Direct InferBatch
// callers (benchmarks, tests) carry no accumulator and every method is
// nil-safe, which keeps the library hot path free of per-request
// bookkeeping allocations.
type phaseAcc struct {
	queue     atomic.Int64 // admission → worker pickup
	hash      atomic.Int64 // column content hashes (the cache key)
	cache     atomic.Int64 // prediction cache lookups
	featurize atomic.Int64 // base featurization (successful columns)
	predict   atomic.Int64 // model prediction (successful columns)
	expired   atomic.Int64 // columns dropped at pickup: deadline spent in queue
}

// phaseKey is the context key carrying the request's accumulator.
type phaseKey struct{}

// withPhases attaches a fresh accumulator to ctx.
func withPhases(ctx context.Context) (context.Context, *phaseAcc) {
	acc := &phaseAcc{}
	return context.WithValue(ctx, phaseKey{}, acc), acc
}

// phasesFrom returns the accumulator carried by ctx, or nil.
func phasesFrom(ctx context.Context) *phaseAcc {
	acc, _ := ctx.Value(phaseKey{}).(*phaseAcc)
	return acc
}

func (a *phaseAcc) addQueue(d time.Duration) {
	if a != nil {
		a.queue.Add(int64(d))
	}
}

func (a *phaseAcc) addHash(d time.Duration) {
	if a != nil {
		a.hash.Add(int64(d))
	}
}

func (a *phaseAcc) addCache(d time.Duration) {
	if a != nil {
		a.cache.Add(int64(d))
	}
}

func (a *phaseAcc) addFeaturize(d time.Duration) {
	if a != nil {
		a.featurize.Add(int64(d))
	}
}

func (a *phaseAcc) addPredict(d time.Duration) {
	if a != nil {
		a.predict.Add(int64(d))
	}
}

// addExpired counts one column whose deadline ran out while it waited in
// the queue (a count, not a duration — it never enters phases()).
func (a *phaseAcc) addExpired() {
	if a != nil {
		a.expired.Add(1)
	}
}

// expiredCount reports how many of the request's columns expired in
// queue, for the flight-record routing note.
func (a *phaseAcc) expiredCount() int64 {
	if a == nil {
		return 0
	}
	return a.expired.Load()
}

// appendPhases appends the accumulated totals to a flight record's
// phases, in fixed order. Nil (no accumulator attached) appends nothing.
func (a *phaseAcc) appendPhases(dst []obs.Phase) []obs.Phase {
	if a == nil {
		return dst
	}
	return append(dst,
		obs.Phase{Name: "queue", DurationNS: a.queue.Load()},
		obs.Phase{Name: "hash", DurationNS: a.hash.Load()},
		obs.Phase{Name: "cache", DurationNS: a.cache.Load()},
		obs.Phase{Name: "featurize", DurationNS: a.featurize.Load()},
		obs.Phase{Name: "predict", DurationNS: a.predict.Load()},
	)
}
