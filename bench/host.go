package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"sync"
	"time"
)

// The sandbox is a couple of cores of a shared host, and the host's speed as
// this process sees it moves by 30-50 % for seconds to minutes at a time:
// every latency quantile of a CPU-bound workload scales by one factor and
// throughput by its inverse (README.md, "The host clock"). No statistic taken
// inside a run can tell a slow host from slow code, so the harness measures
// the host: between the windows of a run it times a fixed piece of work of its
// own, the probe, and reads the windows' durations off a clock that runs at
// the host's speed.
//
// The CPU probe is harness code only — it calls nothing of the system under test,
// so no change to the system can move it — and does, in equal parts on an
// idle sandbox, the two things a serving path does: scan (decode little-endian
// float64 pairs from a buffer that fits the near caches and test each against
// a box, on as many goroutines as the load has clients) and cross the kernel
// (round trips of a 64-byte message between two goroutines over a loopback
// TCP connection of the probe's own).
//
// disk-model is not CPU-bound: its time is the emulated device's, a timer per
// read span, and what a noisy host does to it is fire the timers late. Its
// probe is therefore the device's own service time: a chain of the same
// timers on one goroutine per disk, with nothing else running.

const (
	// refPass and refTrip are what one scan pass and one round trip take on
	// this sandbox when the host is otherwise idle (the fastest tenth of some
	// 3000 probes). They only fix the unit: a slowdown of 1 means "as fast as
	// that".
	refPass = 360 * time.Microsecond
	refTrip = 8300 * time.Nanosecond
	// tripsPerPass makes the two parts take the same time on the idle sandbox.
	tripsPerPass = 43
	// refSleep is what one deviceService timer takes on the idle sandbox: an
	// otherwise idle Go process sleeps in epoll_wait, whose timeout counts
	// whole milliseconds. deviceSleeps is the length of the probe's chain.
	refSleep     = 1105 * time.Microsecond
	deviceSleeps = 100
)

var probeBuf = func() []byte {
	b := make([]byte, 1<<19)
	x := uint64(88172645463325252) // xorshift64: the same bytes on every run
	for i := 0; i < len(b); i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(b[i:], math.Float64bits(float64(x>>11)/(1<<53)))
	}
	return b
}()

// scan reads the buffer passes times and counts the pairs in the box.
func scan(passes int) int {
	n := 0
	for p := 0; p < passes; p++ {
		lo, hi := 0.25+float64(p)*1e-6, 0.75
		for i := 0; i+16 <= len(probeBuf); i += 16 {
			x := math.Float64frombits(binary.LittleEndian.Uint64(probeBuf[i:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(probeBuf[i+8:]))
			if x >= lo && x <= hi && y >= lo && y <= hi {
				n++
			}
		}
	}
	return n
}

var probeSink int // keeps the scan's result alive

// hostClock is one probe and the series of its readings over a run. A stretch
// of work sits between two probes; its slowdown is their mean.
type hostClock struct {
	work   func() error  // the probe's fixed work
	ref    time.Duration // what it takes on the idle sandbox
	probes []float64
	err    error // the probe's first failure, if any
	close  func()
}

// probe times the fixed work and records how much longer it took than on the
// idle sandbox: 1.3 means the host runs this process 1.3 times slower.
func (h *hostClock) probe() {
	t := time.Now()
	err := h.work()
	h.probes = append(h.probes, float64(time.Since(t))/float64(h.ref))
	if err != nil && h.err == nil {
		h.err = fmt.Errorf("host probe: %w", err)
	}
}

// probeQuiesced probes after a full collection. Around a set-up, which leaves
// a hundred megabytes of garbage, the collector would otherwise run beside
// the probe and make it read 1.3-1.4 times too slow.
func (h *hostClock) probeQuiesced() {
	runtime.GC()
	h.probe()
}

// last is the slowdown of the stretch between the latest two probes.
func (h *hostClock) last() float64 {
	n := len(h.probes)
	return (h.probes[n-2] + h.probes[n-1]) / 2
}

// newCPUClock connects the probe's loopback pair, then runs one probe and
// drops it: the first pays for page faults on the buffer and for waking a
// second CPU.
func newCPUClock(passes int) (*hostClock, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	near, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, err
	}
	far, err := ln.Accept()
	if err != nil {
		near.Close()
		return nil, err
	}
	trips := passes * tripsPerPass
	h := &hostClock{
		ref:   time.Duration(passes)*refPass + time.Duration(trips)*refTrip,
		work:  func() error { return cpuWork(passes, trips, near, far) },
		close: func() { near.Close(); far.Close() },
	}
	h.probe()
	h.probes = h.probes[:0]
	return h, h.err
}

// cpuWork is the CPU probe: passes of the scan on every client's goroutine at
// once, then trips round trips between the two ends of the loopback pair.
func cpuWork(passes, trips int, near, far net.Conn) error {
	counts := make([]int, clients)
	var wg sync.WaitGroup
	for g := range counts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			counts[g] = scan(passes)
		}(g)
	}
	wg.Wait()
	for _, c := range counts {
		probeSink += c
	}

	var echoErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		var msg [64]byte
		for i := 0; i < trips && echoErr == nil; i++ {
			if _, echoErr = io.ReadFull(far, msg[:]); echoErr == nil {
				_, echoErr = far.Write(msg[:])
			}
		}
	}()
	var msg [64]byte
	var err error
	for i := 0; i < trips && err == nil; i++ {
		if _, err = near.Write(msg[:]); err == nil {
			_, err = io.ReadFull(near, msg[:])
		}
	}
	if err != nil {
		far.Close() // unblocks the echo side
	}
	wg.Wait()
	if err == nil {
		err = echoErr
	}
	return err
}

// newDeviceClock probes the emulated device: deviceSleeps timers of the
// device's service time in a row, on one goroutine per disk as the server's
// disk workers would wait for them.
func newDeviceClock() *hostClock {
	return &hostClock{
		ref: deviceSleeps * refSleep,
		work: func() error {
			var wg sync.WaitGroup
			for d := 0; d < disks; d++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < deviceSleeps; i++ {
						time.Sleep(deviceService)
					}
				}()
			}
			wg.Wait()
			return nil
		},
		close: func() {},
	}
}
