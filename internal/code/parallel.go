package code

import (
	"runtime"
	"sync"
)

// ParallelChunks splits the index range [0, n) into contiguous chunks and
// runs fn(lo, hi) for each chunk, fanning out across up to GOMAXPROCS
// goroutines. Chunks never overlap and cover the range exactly, so fn may
// write to per-index state without synchronization; any state shared across
// chunks must be read-only or internally synchronized. With one worker (or
// a trivially small n) it runs inline on the calling goroutine.
//
// EncodeAll uses this to generate coded packets concurrently, and the RS
// decoders to reconstruct missing ones: each output packet is independent,
// and the chunked shape lets a worker allocate its scratch once instead of
// per packet.
func ParallelChunks(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
