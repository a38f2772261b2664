package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// newSleeper returns one open-loop worker's sleep and a func that releases
// it. The worker sleeps on a timerfd read through the runtime's network
// poller, so it wakes on time and its goroutine parks meanwhile.
//
// Neither simpler way does both. A runtime timer (time.Sleep) has about
// half a millisecond of wake-up slack, which the generator would charge to
// every request it sends. A nanosleep is exact but keeps the goroutine's
// processor in a system call for the whole sleep: with GOMAXPROCS at
// nproc, a sleeping generator worker leaves the daemon one processor
// short until the runtime's monitor takes it back, and requests that
// arrive meanwhile wait on the monitor's timing, not on the program.
//
// Should the timerfd not be available, the worker falls back to time.Sleep.
func newSleeper() (sleep func(time.Duration), release func()) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return time.Sleep, func() {}
	}
	f := os.NewFile(fd, "timerfd")
	var buf [8]byte // the expiry count a read returns
	sleep = func(d time.Duration) {
		spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(d.Nanoseconds())}
		if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0,
			uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
			time.Sleep(d)
			return
		}
		if _, err := f.Read(buf[:]); err != nil {
			time.Sleep(d) // a late send is measured as lateness; an early one would not be
		}
	}
	return sleep, func() { f.Close() }
}
