package client

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// recordSleeps makes WithRetry record its delays instead of sleeping.
func recordSleeps(t *testing.T) *[]time.Duration {
	var slept []time.Duration
	testHookSleep = func(d time.Duration) { slept = append(slept, d) }
	t.Cleanup(func() { testHookSleep = nil })
	return &slept
}

// TestWithRetryRetriesOverloadedOnly: overload errors retry with
// backoff until success; anything else returns immediately.
func TestWithRetryRetriesOverloadedOnly(t *testing.T) {
	slept := recordSleeps(t)

	calls := 0
	err := WithRetry(func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("join rejected: %w", ErrOverloaded)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("WithRetry = %v, want success on third attempt", err)
	}
	if calls != 3 {
		t.Fatalf("op called %d times, want 3", calls)
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	// Jittered delay of attempt n lands in [base<<n / 2, base<<n * 1.5).
	for n, d := range *slept {
		lo, hi := (50*time.Millisecond<<n)/2, 50*time.Millisecond<<n*3/2
		if d < lo || d >= hi {
			t.Errorf("delay %d = %v, want in [%v, %v)", n, d, lo, hi)
		}
	}

	// A non-overload error is not retried.
	calls = 0
	permanent := errors.New("no such table")
	err = WithRetry(func() error { calls++; return permanent })
	if !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("permanent error: err=%v after %d calls, want immediate return", err, calls)
	}
}

// TestWithRetryExhaustsAttempts: a persistently overloaded server
// yields the typed error after four attempts.
func TestWithRetryExhaustsAttempts(t *testing.T) {
	slept := recordSleeps(t)
	calls := 0
	err := WithRetry(func() error {
		calls++
		return fmt.Errorf("shed: %w", ErrOverloaded)
	})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("WithRetry = %v, want ErrOverloaded after exhaustion", err)
	}
	if calls != 4 {
		t.Fatalf("op called %d times, want 4", calls)
	}
	if len(*slept) != 3 {
		t.Fatalf("slept %d times, want 3 (no sleep after the final attempt)", len(*slept))
	}
}

// TestWithRetryDelayCap: every delay is positive and below the 2s cap
// plus its jitter.
func TestWithRetryDelayCap(t *testing.T) {
	slept := recordSleeps(t)
	WithRetry(func() error { return ErrOverloaded })
	for n, d := range *slept {
		if max := 2 * time.Second * 3 / 2; d <= 0 || d >= max {
			t.Errorf("delay %d = %v, want in (0, %v) (cap plus jitter)", n, d, max)
		}
	}
}
