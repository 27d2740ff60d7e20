package bench

import (
	"fmt"

	"ncache/internal/passthru"
)

// RequestSizesKB is the request-size sweep of Figures 4 and 5.
var RequestSizesKB = []int{4, 8, 16, 32}

// fig4 reproduces Figure 4: the all-miss workload (sequential read of a
// 384 MB file, far larger than any cache, so the measured window never wraps
// into cached territory) across the three configurations, sweeping the NFS
// request size. Reported: throughput (a) and NFS server CPU utilization
// (b); storage CPU shows who saturates.
func fig4(h *harness) ([]NFSPoint, error) {
	return sweep("fig4", RequestSizesKB, func(mode passthru.Mode, kb int) (NFSPoint, error) {
		return fig4Point(h, mode, kb, 96*1024)
	})
}

func fig4Point(h *harness, mode passthru.Mode, reqKB int, fileBlocks int64) (NFSPoint, error) {
	cl, load, err := h.missRig(h.withFaults(passthru.ClusterConfig{Mode: mode}), fileBlocks, reqKB, nil)
	if err != nil {
		return NFSPoint{}, err
	}
	return h.nfsPoint(cl, load)
}

// fig5 reproduces Figure 5: the all-hit workload (5 MB hot file). With one
// NIC (5a) the link is the bottleneck and the interesting output is the
// server CPU each configuration saves; with two NICs and the clients split
// across them (5b) the CPU becomes the bottleneck and the copy savings
// convert into throughput.
func fig5(nics int) func(*harness) ([]NFSPoint, error) {
	return func(h *harness) ([]NFSPoint, error) {
		return sweep(fmt.Sprintf("fig5 nics=%d", nics), RequestSizesKB, func(mode passthru.Mode, kb int) (NFSPoint, error) {
			return fig5Point(h, mode, kb, nics)
		})
	}
}

func fig5Point(h *harness, mode passthru.Mode, reqKB, nics int) (NFSPoint, error) {
	cl, load, err := h.hitRig(h.withFaults(passthru.ClusterConfig{Mode: mode, ServerNICs: nics}), reqKB, nil)
	if err != nil {
		return NFSPoint{}, err
	}
	return h.nfsPoint(cl, load)
}
