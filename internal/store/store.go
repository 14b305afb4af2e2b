// Package store is the tree's one keyed memo: a context-aware
// singleflight over a byte-accounted LRU. The service's compile cache,
// the suite Runner's cache and the per-unit incremental memo are all
// instances of Store; they differ in key, value and bound, never in
// mechanism.
//
// The contract, for every instance:
//
//   - Each key is computed once at a time. The first caller to miss
//     claims the key and fills it; later callers for that key wait on
//     the claim, each honouring its own context while it waits.
//   - A failed fill leaves the map before its waiters wake, so a waiter
//     that looks again finds a claimable miss, never the failed entry.
//     A waiter whose leader died of the leader's own context error
//     retries under its own context; any other error is shared with the
//     waiters that rode the fill.
//   - Completed entries form an LRU bounded by entries and by a byte
//     estimate the filler supplies. An in-flight entry is never on the
//     list, so it cannot be evicted and its waiter set never splits.
//     Completed entries are immutable, so a caller holding one may keep
//     reading it after eviction drops it from the map.
package store

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"polaris/internal/telemetry"
)

// Limits bounds a Store. Zero fields mean unlimited.
type Limits struct {
	// MaxEntries caps completed entries; MaxBytes caps their summed size
	// estimate. In-flight entries are exempt: they are pinned until their
	// claim is completed or released.
	MaxEntries int
	MaxBytes   int64
}

// Stats is a point-in-time snapshot of a Store.
type Stats struct {
	// Entries and Bytes count completed (evictable) entries and their
	// summed size estimate; in-flight claims are excluded.
	Entries int
	Bytes   int64
	// Hits counts lookups answered by an existing entry — for Do
	// including joins on an in-flight one, for Acquire only completed
	// ones. Misses counts claims.
	Hits   int64
	Misses int64
	// Evictions counts entries dropped by the LRU bound; Retries counts
	// Do waiters that looked again after a leader failed with a context
	// error.
	Evictions int64
	Retries   int64
}

// Outcome reports how one Do was satisfied, for request tracing: Kind
// is telemetry.OutcomeCold when this caller filled the key,
// telemetry.OutcomeCacheHit when a completed entry answered, and
// telemetry.OutcomeCoalesced when the caller waited on another's fill.
// LeaderID is the telemetry request ID on the context of the caller
// that filled (or is filling) the key, empty when it carried none.
type Outcome struct {
	Kind     string
	LeaderID string
}

// entry is one key's slot. done closes under Store.mu once the claimant
// has written val and size (or err); those fields are immutable
// afterwards.
type entry[K comparable, V any] struct {
	s        *Store[K, V]
	done     chan struct{}
	key      K
	val      V
	err      error
	size     int64
	leaderID string
	elem     *list.Element // LRU slot; nil while in flight
}

// wait blocks until e is settled or ctx ends.
func (e *entry[K, V]) wait(ctx context.Context) error {
	select {
	case <-e.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Store is a singleflight LRU from K to V, safe for concurrent use.
type Store[K comparable, V any] struct {
	lim Limits

	mu    sync.Mutex
	m     map[K]*entry[K, V]
	lru   list.List // of *entry, front = least recently used
	bytes int64
	stats Stats
}

// New returns an empty store bounded by lim.
func New[K comparable, V any](lim Limits) *Store[K, V] {
	return &Store[K, V]{lim: lim, m: map[K]*entry[K, V]{}}
}

// Stats snapshots the store's gauges and counters.
func (s *Store[K, V]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = s.lru.Len()
	st.Bytes = s.bytes
	return st
}

// LiveBytes recomputes the byte total by walking the LRU list,
// independently of the running counter behind Stats().Bytes; tests
// compare the two to prove the accounting does not drift.
func (s *Store[K, V]) LiveBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum int64
	for el := s.lru.Front(); el != nil; el = el.Next() {
		sum += el.Value.(*entry[K, V]).size
	}
	return sum
}

// getLocked returns k's entry, if any, and whether it has completed,
// moving a completed one to the most-recent end. done closes under s.mu
// and a failed entry leaves the map first, so a completed entry found
// here holds a value.
func (s *Store[K, V]) getLocked(k K) (e *entry[K, V], completed bool) {
	e = s.m[k]
	if e == nil {
		return nil, false
	}
	select {
	case <-e.done:
		s.lru.MoveToBack(e.elem)
		return e, true
	default:
		return e, false
	}
}

// claimLocked puts an in-flight entry for k in the map.
func (s *Store[K, V]) claimLocked(k K, leaderID string) Claim[K, V] {
	e := &entry[K, V]{s: s, done: make(chan struct{}), key: k, leaderID: leaderID}
	s.m[k] = e
	s.stats.Misses++
	return Claim[K, V]{e}
}

// Claim is an in-flight key its holder must settle, exactly once, with
// Complete or Release. The zero Claim holds nothing.
type Claim[K comparable, V any] struct {
	e *entry[K, V]
}

// Held reports whether the claim holds a key.
func (c Claim[K, V]) Held() bool { return c.e != nil }

// Complete publishes v, estimated at size bytes: the entry joins the
// LRU, least recently used entries are evicted past the bound, and the
// waiters wake.
func (c Claim[K, V]) Complete(v V, size int64) {
	s, e := c.e.s, c.e
	e.val, e.size = v, size
	s.mu.Lock()
	e.elem = s.lru.PushBack(e)
	s.bytes += size
	for (s.lim.MaxEntries > 0 && s.lru.Len() > s.lim.MaxEntries) || (s.lim.MaxBytes > 0 && s.bytes > s.lim.MaxBytes) {
		victim := s.lru.Remove(s.lru.Front()).(*entry[K, V])
		s.bytes -= victim.size
		s.stats.Evictions++
		if s.m[victim.key] == victim {
			delete(s.m, victim.key)
		}
	}
	close(e.done)
	s.mu.Unlock()
}

// Release abandons the claim with err, which Do's waiters share unless
// it is a context error. The key leaves the map before the waiters
// wake, so one that looks again claims a miss.
func (c Claim[K, V]) Release(err error) {
	s, e := c.e.s, c.e
	e.err = err
	s.mu.Lock()
	if s.m[e.key] == e {
		delete(s.m, e.key)
	}
	close(e.done)
	s.mu.Unlock()
}

// isCtxErr reports whether err is a (possibly wrapped) context
// cancellation or deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Do returns k's value, calling fill under ctx to compute it (and its
// size estimate) when k is neither resident nor in flight. A waiter
// that gives up returns its own ctx.Err(); a waiter whose leader failed
// with a context error while its own context is live looks again
// (typically leading the retry, and reporting that attempt's outcome).
func (s *Store[K, V]) Do(ctx context.Context, k K, fill func(context.Context) (V, int64, error)) (V, Outcome, error) {
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return zero, Outcome{}, err
		}
		s.mu.Lock()
		e, completed := s.getLocked(k)
		if e == nil {
			c := s.claimLocked(k, telemetry.RequestID(ctx))
			s.mu.Unlock()
			v, size, err := fill(ctx)
			if err != nil {
				c.Release(err)
			} else {
				c.Complete(v, size)
			}
			return v, Outcome{Kind: telemetry.OutcomeCold, LeaderID: c.e.leaderID}, err
		}
		s.stats.Hits++
		s.mu.Unlock()
		if err := e.wait(ctx); err != nil {
			return zero, Outcome{}, err
		}
		if e.err != nil {
			if isCtxErr(e.err) && ctx.Err() == nil {
				s.mu.Lock()
				s.stats.Retries++
				s.mu.Unlock()
				continue
			}
			return zero, Outcome{LeaderID: e.leaderID}, e.err
		}
		kind := telemetry.OutcomeCacheHit
		if !completed {
			kind = telemetry.OutcomeCoalesced
		}
		return e.val, Outcome{Kind: kind, LeaderID: e.leaderID}, nil
	}
}

// Acquire resolves a batch of keys at once: for each i, either vals[i]
// is the completed value of keys[i], or claims[i] is held and the
// caller must settle it. A key repeated within keys gets neither after
// its first occurrence — waiting on one's own claim would never end —
// so a caller whose zero V is a valid value cannot tell that case from
// a hit.
//
// Deadlock freedom is by wait-before-claim: while any key is in flight
// elsewhere, Acquire claims nothing and waits on those keys (honouring
// ctx), then looks again; only a sweep that finds nothing in flight
// claims every remaining miss, atomically. A caller therefore never
// holds a claim while it waits for another's, so two batches with
// overlapping keys cannot deadlock on each other.
func (s *Store[K, V]) Acquire(ctx context.Context, keys []K) (vals []V, claims []Claim[K, V], err error) {
	vals = make([]V, len(keys))
	claims = make([]Claim[K, V], len(keys))
	leaderID := telemetry.RequestID(ctx)
	var zero V
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// Every sweep resolves every key afresh (an earlier hit may have
		// been evicted while this call waited); only the last one counts.
		var waits []*entry[K, V]
		var hits int64
		s.mu.Lock()
		for i, k := range keys {
			switch e, completed := s.getLocked(k); {
			case completed:
				vals[i] = e.val
				hits++
			case e != nil:
				waits = append(waits, e)
			default:
				vals[i] = zero
			}
		}
		if len(waits) == 0 {
			s.stats.Hits += hits
			for i, k := range keys {
				// Nothing is in flight, so a key in the map is a hit or was
				// claimed by this loop for an earlier occurrence.
				if _, found := s.m[k]; !found {
					claims[i] = s.claimLocked(k, leaderID)
				}
			}
			s.mu.Unlock()
			return vals, claims, nil
		}
		s.mu.Unlock()
		for _, e := range waits {
			if err := e.wait(ctx); err != nil {
				return nil, nil, err
			}
		}
	}
}
