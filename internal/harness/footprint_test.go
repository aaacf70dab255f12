package harness_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/myrinet"
	"repro/internal/tmk"
)

// TestHostFootprintTracksBytesMoved checks that the simulator's live heap
// does not grow with the registered memory the GM model pins. A cluster
// that has only booted and crossed one barrier has pinned its full
// preposted receive rings — O(n²) bytes across the cluster — but moved
// almost nothing, so its host footprint must be a small fraction of the
// modelled pinned bytes. The footprint is not linear in n: every
// preposted buffer still has a descriptor (gm.Buffer), and those are
// O(n²) too, only far smaller than the buffers they describe.
func TestHostFootprintTracksBytesMoved(t *testing.T) {
	for _, kind := range []tmk.TransportKind{tmk.TransportFastGM, tmk.TransportRDMAGM} {
		for _, n := range []int{32, 64, 128} {
			t.Run(fmt.Sprintf("%s/%d", kind, n), func(t *testing.T) {
				before := liveHeap()
				cluster := tmk.NewCluster(tmk.DefaultConfig(n, kind))
				if _, err := cluster.Run(func(tp *tmk.Proc) { tp.Barrier(1) }); err != nil {
					t.Fatal(err)
				}
				live := liveHeap() - before
				var pinned int64
				for i := 0; i < n; i++ {
					pinned += cluster.GM().Node(myrinet.NodeID(i)).MaxPinnedBytes()
				}
				runtime.KeepAlive(cluster)
				t.Logf("live heap %.1f MiB for %.1f MiB pinned (%.1f%%)",
					float64(live)/(1<<20), float64(pinned)/(1<<20), 100*float64(live)/float64(pinned))
				if live*20 > pinned {
					t.Errorf("live heap %d B exceeds 1/20 of %d modelled pinned bytes", live, pinned)
				}
			})
		}
	}
}

// liveHeap returns the heap bytes still reachable after a forced GC.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
