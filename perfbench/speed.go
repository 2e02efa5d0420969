package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// The host this benchmark runs on is a shared VM whose speed drifts by
// up to 1.8x over minutes, with load from outside the VM that the guest
// sees neither as steal time nor in CPU time. A fixed reference kernel,
// timed before and after each simulation, measures the host's speed
// during it, and every host time a simulation reports is scaled to what
// it would have been at refNominal.

// refNominal is the reference kernel's time at the nominal host speed: a
// round figure inside the 67-122 ms the kernel took on the 2-vCPU Xeon
// VM the bounds were measured on, so scaled values stay close to raw
// ones there.
const refNominal = 100 * time.Millisecond

// refTable is 8 MB: past the per-core caches, like the simulator's
// page-state planes, so the kernel feels the same cache and memory
// contention the simulation does. It is an anonymous mapping outside the
// Go heap, so it neither shows in the reported live heap nor changes
// when the garbage collector runs during a simulation.
var refTable []byte

var refSink uint64

// referenceTime runs the reference kernel, pseudo-random
// read-modify-writes with a data-dependent branch, and returns its host
// time. It collects the heap first, so no garbage collection of a
// simulation's leftovers runs beside the kernel.
func referenceTime() (time.Duration, error) {
	if refTable == nil {
		b, err := syscall.Mmap(-1, 0, 8<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
		if err != nil {
			return 0, fmt.Errorf("map reference table: %w", err)
		}
		refTable = b
	}
	runtime.GC()
	le := binary.LittleEndian
	start := time.Now()
	x := uint64(88172645463325252)
	mask := uint64(len(refTable)/8 - 1)
	var acc uint64
	for i := 0; i < 6<<20; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		w := refTable[(x&mask)*8:]
		v := le.Uint64(w)
		if v&3 == 0 {
			acc += v >> 3
		} else {
			acc ^= v
		}
		le.PutUint64(w, v+x>>40)
	}
	refSink = acc
	return time.Since(start), nil
}
