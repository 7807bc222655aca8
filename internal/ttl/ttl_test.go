package ttl

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestExpired(t *testing.T) {
	now := time.Now()
	if Expired(time.Time{}, now, time.Nanosecond) {
		t.Error("zero time must never expire")
	}
	if Expired(now.Add(-time.Second), now, 2*time.Second) {
		t.Error("entry inside its TTL reported expired")
	}
	if !Expired(now.Add(-3*time.Second), now, 2*time.Second) {
		t.Error("entry past its TTL reported live")
	}
}

func TestIntervalClamps(t *testing.T) {
	cases := []struct {
		ttl, want time.Duration
	}{
		{time.Millisecond, 10 * time.Millisecond}, // floor
		{time.Minute, 15 * time.Second},           // ttl/4
		{24 * time.Hour, 30 * time.Second},        // ceiling
	}
	for _, c := range cases {
		if got := Interval(c.ttl); got != c.want {
			t.Errorf("Interval(%v) = %v, want %v", c.ttl, got, c.want)
		}
	}
}

func TestSweeperSweepsAndStops(t *testing.T) {
	var (
		mu     sync.Mutex
		sweeps int
	)
	s := NewSweeper(context.Background(), time.Millisecond, func(time.Time) {
		mu.Lock()
		sweeps++
		mu.Unlock()
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := sweeps
		mu.Unlock()
		if n >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeper fired %d times, want >= 2", n)
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	mu.Lock()
	after := sweeps
	mu.Unlock()
	time.Sleep(10 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if sweeps != after {
		t.Errorf("sweep ran after Stop returned (%d -> %d)", after, sweeps)
	}
	s.Stop() // idempotent
}

func TestSweeperStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSweeper(ctx, time.Millisecond, func(time.Time) {})
	cancel()
	select {
	case <-s.done:
	case <-time.After(2 * time.Second):
		t.Fatal("sweeper did not exit on context cancellation")
	}
	s.Stop() // must not hang after ctx-driven exit
}
