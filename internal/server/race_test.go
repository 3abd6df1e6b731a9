//go:build race

package server

// raceEnabled reports a -race build: the detector slows every goroutine
// several-fold, which reshapes pipelined streams (a scan's chunks stop
// queueing behind each other), so syscall counts mean nothing there.
const raceEnabled = true
