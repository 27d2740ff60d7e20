// Package nfs implements the NFS protocol (an NFSv2-shaped dialect with
// 64-bit offsets) over ONC RPC/UDP: wire codecs, a server that frames
// requests and replies, and a client for workload generators.
//
// The server is payload-agnostic by design: read replies are composed as a
// small XDR head plus a payload chain appended without copying, and write
// request payloads are handed to the backend still in their original wire
// buffers. Whether those chains carry real bytes or NCache logical keys is
// the backend's business — mirroring the paper's unmodified NFS daemon
// (Table 1: "NFS/Web server daemon: None").
package nfs

import "ncache/internal/lkey"

// Program identity.
const (
	Prog = 100003
	Vers = 2
	Port = 2049
)

// Procedure numbers (NFSv2 numbering).
const (
	ProcNull    = 0
	ProcGetattr = 1
	ProcSetattr = 2
	ProcLookup  = 4
	ProcRead    = 6
	ProcWrite   = 8
	ProcCreate  = 9
	ProcRemove  = 10
	ProcMkdir   = 14
	ProcRmdir   = 15
	ProcReaddir = 16
)

// Status codes.
const (
	OK          uint32 = 0
	ErrPerm     uint32 = 1
	ErrNoEnt    uint32 = 2
	ErrIO       uint32 = 5
	ErrExist    uint32 = 17
	ErrNotDir   uint32 = 20
	ErrIsDir    uint32 = 21
	ErrFBig     uint32 = 27
	ErrNoSpc    uint32 = 28
	ErrNameLong uint32 = 63
	ErrNotEmpty uint32 = 66
)

// FH is the fixed-size file handle (the first 4 bytes carry the inode
// number; the rest is reserved).
type FH = lkey.FH

// FHLen is the encoded file handle size.
const FHLen = 8

// File types in attributes.
const (
	TypeFile uint32 = 1
	TypeDir  uint32 = 2
)

// Attr is the attribute subset the protocol carries.
type Attr struct {
	Type  uint32
	Links uint32
	Size  uint64
}

// MaxNameLen bounds a name argument (NFSv2's MAXNAMLEN).
const MaxNameLen = 255

// AttrLen is the encoded attribute size.
const AttrLen = 16

// MaxReadSize bounds a single READ transfer (the paper sweeps 4–32 KB; the
// reply plus RPC/UDP headers must stay within one 64 KB UDP datagram).
const MaxReadSize = 32 * 1024

// StatusError converts an NFS status to a Go error (nil for OK).
func StatusError(st uint32) error {
	if st == OK {
		return nil
	}
	return &OpError{Status: st}
}

// OpError is a non-OK NFS reply status.
type OpError struct {
	Status uint32
}

func (e *OpError) Error() string {
	switch e.Status {
	case ErrNoEnt:
		return "nfs: no such file or directory"
	case ErrExist:
		return "nfs: file exists"
	case ErrNotDir:
		return "nfs: not a directory"
	case ErrIsDir:
		return "nfs: is a directory"
	case ErrNotEmpty:
		return "nfs: directory not empty"
	case ErrNoSpc:
		return "nfs: no space"
	case ErrIO:
		return "nfs: I/O error"
	default:
		return "nfs: error"
	}
}
