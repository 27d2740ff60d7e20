package simnet

import "ncache/internal/sim"

// CostProfile calibrates the CPU cost of data-path operations. The defaults
// approximate the paper's testbed: Pentium III 1 GHz application/storage
// servers, Intel Pro/1000 gigabit NICs with checksum offload, Linux 2.4.
//
// Only relative magnitudes matter for reproducing the evaluation's shape:
// per-byte copy cost dominates large requests, per-packet cost dominates
// small ones — the crossover the paper places around 16 KB.
type CostProfile struct {
	// CopyNsPerByte is the cost of one byte of payload memcpy. A PIII-1GHz
	// sustains roughly 400 MB/s on cache-cold buffer-to-buffer copies.
	CopyNsPerByte float64
	// ChecksumNsPerByte is the cost of software Internet checksumming.
	// Irrelevant when NICs offload (the testbed's default).
	ChecksumNsPerByte float64
	// PktTxNs is the fixed per-packet transmit cost: driver, descriptor
	// setup, protocol header construction.
	PktTxNs sim.Duration
	// PktRxNs is the fixed per-packet receive cost: interrupt, driver,
	// protocol demux.
	PktRxNs sim.Duration
	// RPCNs is the per-message RPC/XDR processing cost.
	RPCNs sim.Duration
	// NFSOpNs is the per-operation NFS server logic cost (fh resolution,
	// permission checks, reply construction).
	NFSOpNs sim.Duration
	// HTTPOpNs is the per-request kHTTPd logic cost (parse, lookup).
	HTTPOpNs sim.Duration
	// ISCSIOpNs is the per-command iSCSI initiator/target logic cost.
	ISCSIOpNs sim.Duration
	// TargetBlockNs is the storage target's per-block overhead (buffer
	// management, SCSI midlayer, scatter-gather setup) — what saturates
	// the storage server's CPU in the paper's all-miss runs.
	TargetBlockNs sim.Duration
	// FSBlockNs is the per-block file system logic cost (mapping,
	// buffer-cache lookup).
	FSBlockNs sim.Duration
	// LogicalCopyNs is the cost of one logical copy: moving a 40-byte
	// key between layers instead of a payload.
	LogicalCopyNs sim.Duration
	// NCacheLookupNs is the hash lookup/insert cost per NCache operation.
	NCacheLookupNs sim.Duration
	// NCacheSubstNs is the per-packet payload-substitution cost at the
	// driver hook (clone descriptors, fix headers).
	NCacheSubstNs sim.Duration
	// NCacheMgmtNs is the per-block cache-management cost (LRU list
	// maintenance, chunk bookkeeping) — the overhead that separates
	// NFS-NCache from NFS-baseline in Figures 4–7.
	NCacheMgmtNs sim.Duration
}

// DefaultProfile returns the PIII-1GHz-calibrated cost profile used by all
// experiments unless overridden.
func DefaultProfile() CostProfile {
	return CostProfile{
		CopyNsPerByte:     3.0,  // ~333 MB/s cache-cold memcpy
		ChecksumNsPerByte: 1.25, // ~800 MB/s csum walk (offloaded by default)
		PktTxNs:           3500,
		PktRxNs:           4 * sim.Microsecond,
		RPCNs:             6 * sim.Microsecond,
		NFSOpNs:           25 * sim.Microsecond,
		HTTPOpNs:          12 * sim.Microsecond,
		ISCSIOpNs:         8 * sim.Microsecond,
		TargetBlockNs:     12 * sim.Microsecond,
		FSBlockNs:         1500,
		LogicalCopyNs:     150,
		NCacheLookupNs:    1 * sim.Microsecond,
		NCacheSubstNs:     700,
		NCacheMgmtNs:      2500,
	}
}

// CopyCost returns the CPU time to physically copy n payload bytes.
func (p CostProfile) CopyCost(n int) sim.Duration {
	return sim.Duration(p.CopyNsPerByte * float64(n))
}

// ChecksumCost returns the CPU time to checksum n payload bytes in software.
func (p CostProfile) ChecksumCost(n int) sim.Duration {
	return sim.Duration(p.ChecksumNsPerByte * float64(n))
}
