package transport

import (
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/netsim"
)

// RetryPolicy bounds a control-plane request loop: a fixed number of
// attempts, a per-attempt reply timeout, and a jittered exponential
// backoff between attempts. The zero value selects sane client defaults
// (5 attempts, 500ms timeout, 100ms base backoff capped at 2s).
//
// Control requests are tiny idempotent datagrams, so retrying is always
// safe; the jitter keeps a fleet of clients from re-probing a restarted
// mirror in lockstep.
type RetryPolicy struct {
	Attempts   int           // total attempts (0 = 5)
	Timeout    time.Duration // per-attempt reply timeout (0 = 500ms)
	Backoff    time.Duration // delay before the second attempt (0 = 100ms), doubling
	MaxBackoff time.Duration // backoff ceiling (0 = 2s)
	Seed       int64         // jitter seed; fixed seeds make retry schedules reproducible
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 5
	}
	if p.Timeout <= 0 {
		p.Timeout = 500 * time.Millisecond
	}
	if p.Backoff <= 0 {
		p.Backoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	return p
}

// delay returns the jittered backoff before attempt i+1 (i counting from
// 0): the exponential base scaled by a deterministic factor in [0.5, 1.5).
func (p RetryPolicy) delay(i int) time.Duration {
	d := p.Backoff << uint(i)
	if d > p.MaxBackoff || d <= 0 {
		d = p.MaxBackoff
	}
	// One splitmix64 step: the golden-ratio increment, then the finalizer.
	j := netsim.Mix(uint64(p.Seed) ^ uint64(i) + 0x5DEECE66D + 0x9E3779B97F4A7C15)
	frac := 0.5 + float64(j>>11)/float64(1<<53) // [0.5, 1.5)
	return time.Duration(float64(d) * frac)
}

// RequestSessionInfoRetry is RequestSessionInfo wrapped in a bounded,
// jittered retry loop: a client starting against a mirror that is slow,
// restarting, or momentarily unreachable keeps probing instead of dying on
// the first lost datagram — and still fails fast (with the last error)
// when the server is truly gone, instead of hanging forever.
//
// Errors are classified per attempt: ErrTimeout means the reply was lost
// or late and another probe is worthwhile; ErrClosed means the socket
// itself died, so the loop stops immediately instead of sleeping through
// the remaining backoff schedule against a dead endpoint.
func RequestSessionInfoRetry(control *net.UDPAddr, hello []byte, p RetryPolicy) ([]byte, error) {
	return requestRetry(p, func(timeout time.Duration) ([]byte, error) {
		return RequestSessionInfo(control, hello, timeout)
	})
}

// requestRetry runs one control-request attempt function under the policy.
// Factored from RequestSessionInfoRetry so the retry/classification logic
// is testable without a live socket.
func requestRetry(p RetryPolicy, attempt func(timeout time.Duration) ([]byte, error)) ([]byte, error) {
	p = p.withDefaults()
	var lastErr error
	for i := 0; i < p.Attempts; i++ {
		if i > 0 {
			time.Sleep(p.delay(i - 1))
		}
		reply, err := attempt(p.Timeout)
		if err == nil {
			return reply, nil
		}
		lastErr = err
		if errors.Is(err, ErrClosed) {
			return nil, fmt.Errorf("transport: control request failed after %d attempts: %w",
				i+1, lastErr)
		}
	}
	return nil, fmt.Errorf("transport: control request failed after %d attempts: %w",
		p.Attempts, lastErr)
}
