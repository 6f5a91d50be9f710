package client

import (
	"errors"
	"math/rand"
	"time"
)

// The backoff policy of WithRetry: retryAttempts tries in all, the
// delay before retry n is retryBase<<n capped at retryMax.
const (
	retryAttempts = 4
	retryBase     = 50 * time.Millisecond
	retryMax      = 2 * time.Second
)

// testHookSleep, when not nil, replaces time.Sleep between attempts.
var testHookSleep func(time.Duration)

// WithRetry runs op, retrying it with jittered exponential backoff as
// long as the error wraps ErrOverloaded — the one failure the server
// promises is safe to retry, since admission control sheds before any
// pairing work runs. Any other error (including success) returns
// immediately; an overloaded final attempt returns its ErrOverloaded
// so callers can still classify it.
//
// The delay before retry n is 50ms<<n capped at 2s, with ±50% uniform
// jitter so a fleet of shed clients does not reconverge on the server
// in lockstep; op runs at most four times.
func WithRetry(op func() error) error {
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if err = op(); !errors.Is(err, ErrOverloaded) {
			return err
		}
		if attempt == retryAttempts-1 {
			break
		}
		delay := min(retryBase<<attempt, retryMax)
		// ±50% jitter: delay/2 + rand[0, delay).
		delay = delay/2 + time.Duration(rand.Int63n(int64(delay)))
		if testHookSleep != nil {
			testHookSleep(delay)
		} else {
			time.Sleep(delay)
		}
	}
	return err
}
