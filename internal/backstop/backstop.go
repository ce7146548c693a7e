// Package backstop provides bounded free stacks that sit in front of
// sync.Pool on allocation hot paths.
//
// sync.Pool is emptied on every garbage-collection cycle, so a long
// many-session run re-allocates its entire pooled working set after each GC
// — at scale those refills dominate the allocation profile. A Stack is a
// bounded free stack the GC never clears: releases land here first, and only
// the overflow cycles through sync.Pool.
//
// The stack is cut into shards so goroutines that collide (the sharded
// simulation runner's workers, udpnet's readers) move on to a neighbouring
// shard instead of queueing on one lock. Nobody ever waits: a shard is entered
// with TryLock, and a caller that finds its shards busy, full or empty simply
// reports failure, which its sync.Pool fallback absorbs. A goroutine running
// alone sees one logical LIFO stack, the shards its segments, at the price of
// one uncontended try-lock per operation. Which shard serves an object never
// affects simulation results (callers always fully re-initialize what they get
// back).
package backstop

import (
	"sync"
	"sync/atomic"
)

// Shards is the fixed shard count (power of two for cheap masking).
const Shards = 8

type shard[T any] struct {
	mu   sync.Mutex
	free []T
	_    [32]byte // one cache line per shard
}

// Stack is a sharded, bounded, GC-immune free stack. The zero value is
// usable once PerShard is set; a zero PerShard stack accepts nothing.
type Stack[T any] struct {
	// PerShard bounds each shard's stack depth (set once, before use).
	PerShard int
	// top is the shard operations try first: the segment holding the top of
	// the logical stack. It is a hint, read on every operation and written
	// only when the top crosses into a neighbouring shard.
	top    atomic.Uint32
	shards [Shards]shard[T]
}

// Put offers x to the top shard, then to the one above it; it reports false
// when both are full or busy (the caller falls back to sync.Pool or drops the
// object to the GC).
func (b *Stack[T]) Put(x T) bool {
	at := b.top.Load()
	for i := uint32(0); i < 2; i++ {
		k := (at + i) & (Shards - 1)
		s := &b.shards[k]
		if !s.mu.TryLock() {
			continue
		}
		if len(s.free) < b.PerShard {
			s.free = append(s.free, x)
			s.mu.Unlock()
			if i != 0 {
				b.top.Store(k)
			}
			return true
		}
		s.mu.Unlock()
	}
	return false
}

// Get pops from the top shard, then from the one below it, before giving up.
func (b *Stack[T]) Get() (T, bool) {
	var zero T
	at := b.top.Load()
	for i := uint32(0); i < 2; i++ {
		k := (at - i) & (Shards - 1)
		s := &b.shards[k]
		if !s.mu.TryLock() {
			continue
		}
		if n := len(s.free); n > 0 {
			x := s.free[n-1]
			s.free[n-1] = zero
			s.free = s.free[:n-1]
			s.mu.Unlock()
			if i != 0 {
				b.top.Store(k)
			}
			return x, true
		}
		s.mu.Unlock()
	}
	return zero, false
}
