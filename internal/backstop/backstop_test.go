package backstop

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestSingleGoroutineSeesOneStack: alone, a goroutine gets the whole stack —
// every shard's depth — in LIFO order, and is refused exactly at the bound.
func TestSingleGoroutineSeesOneStack(t *testing.T) {
	const per = 5
	s := Stack[int]{PerShard: per}
	if _, ok := s.Get(); ok {
		t.Fatal("Get on an empty stack returned an object")
	}
	for i := 1; i <= per*Shards; i++ {
		if !s.Put(i) {
			t.Fatalf("Put %d refused below the bound %d", i, per*Shards)
		}
	}
	if s.Put(-1) {
		t.Fatal("Put accepted past the bound")
	}
	for want := per * Shards; want >= 1; want-- {
		got, ok := s.Get()
		if !ok || got != want {
			t.Fatalf("Get = %d,%v; want %d (LIFO)", got, ok, want)
		}
	}
	if _, ok := s.Get(); ok {
		t.Fatal("Get returned more than was put")
	}
	// Churn across a shard boundary keeps working in both directions.
	for round := 0; round < 3; round++ {
		for i := 0; i < per+2; i++ {
			if !s.Put(i) {
				t.Fatal("Put refused during churn")
			}
		}
		for i := per + 1; i >= 0; i-- {
			if got, ok := s.Get(); !ok || got != i {
				t.Fatalf("churn Get = %d,%v; want %d", got, ok, i)
			}
		}
	}
}

func TestZeroPerShardAcceptsNothing(t *testing.T) {
	var s Stack[*int]
	if s.Put(new(int)) {
		t.Fatal("a zero-PerShard stack accepted an object")
	}
}

// TestConcurrentPutGet hammers one stack from many goroutines (run under
// -race): nothing may be handed out twice or invented, and the stack never
// holds more than its bound.
func TestConcurrentPutGet(t *testing.T) {
	const per, workers, each = 16, 8, 20000
	s := Stack[*int]{PerShard: per}
	owned := make([]atomic.Int32, workers*4) // 1 while some goroutine holds object i
	objs := make([]int, len(owned))
	for i := range objs {
		objs[i] = i
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			mine := []*int{&objs[4*w], &objs[4*w+1], &objs[4*w+2], &objs[4*w+3]}
			for _, p := range mine {
				owned[*p].Store(1)
			}
			for i := 0; i < each; i++ {
				if len(mine) > 0 && i%3 != 0 {
					p := mine[len(mine)-1]
					owned[*p].Store(0)
					if s.Put(p) {
						mine = mine[:len(mine)-1]
					} else {
						owned[*p].Store(1)
					}
				} else if p, ok := s.Get(); ok {
					if !owned[*p].CompareAndSwap(0, 1) {
						t.Errorf("object %d handed out while still held", *p)
						return
					}
					mine = append(mine, p)
				}
			}
		}(w)
	}
	wg.Wait()
	left := 0
	for i := range s.shards {
		n := len(s.shards[i].free)
		if n > per {
			t.Fatalf("a shard holds %d objects, bound %d", n, per)
		}
		left += n
	}
	held := 0
	for i := range owned {
		held += int(owned[i].Load())
	}
	if left+held != len(objs) {
		t.Fatalf("%d objects in the stack + %d held != %d created", left, held, len(objs))
	}
}
