//go:build !linux

package main

import "time"

// newSleeper returns one open-loop worker's sleep and a func that releases
// it; off Linux, a runtime timer.
func newSleeper() (sleep func(time.Duration), release func()) {
	return time.Sleep, func() {}
}
