//go:build !linux

package main

import "errors"

// Without sched_setaffinity there is no CPU plan and the canary is never
// started.
func canaryMain(string) { fatal(errors.New("the canary needs Linux")) }
