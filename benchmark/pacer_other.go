//go:build !linux

package main

import "time"

// sleeper blocks a goroutine until a deadline on the generator clock. Off
// Linux there is no timerfd; time.Sleep's coarser wake-ups show up in
// generator_lag_p99_us and fail the lag gate if they matter.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (s *sleeper) waitUntil(at int64) error {
	if d := at - nowNs(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return nil
}

func (s *sleeper) close() {}
