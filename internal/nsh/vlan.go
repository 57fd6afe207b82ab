package nsh

import (
	"errors"
	"fmt"
)

// The OpenFlow fallback: OpenFlow switches do not support NSH, so Lemur packs
// the service path into the 12-bit VLAN vid (§5.3). We split the vid into a
// path part and an index part; this limits how many chains and how many NFs
// per chain can be configured, exactly the limitation the paper notes.

// VLAN vid split: high bits select the path, low bits the service index.
const (
	VLANPathBits  = 7 // up to 128 service paths
	VLANIndexBits = 5 // up to 31 service indices per path
	MaxVLANPath   = 1<<VLANPathBits - 1
	MaxVLANIndex  = 1<<VLANIndexBits - 1
)

// ErrVLANOverflow is returned when a service path does not fit the vid split.
var ErrVLANOverflow = errors.New("nsh: service path does not fit in VLAN vid encoding")

// PackVLAN encodes (path, index) into a VLAN vid. Vid 0 is reserved
// (untagged), so path 0/index 0 maps to vid with index offset handled by the
// caller keeping index >= 1 for live paths.
func PackVLAN(path uint32, index uint8) (uint16, error) {
	if path > MaxVLANPath {
		return 0, fmt.Errorf("%w: path %d > %d", ErrVLANOverflow, path, MaxVLANPath)
	}
	if index > MaxVLANIndex {
		return 0, fmt.Errorf("%w: index %d > %d", ErrVLANOverflow, index, MaxVLANIndex)
	}
	vid := uint16(path)<<VLANIndexBits | uint16(index)
	if vid == 0 {
		return 0, fmt.Errorf("%w: (0,0) maps to reserved vid 0", ErrVLANOverflow)
	}
	return vid, nil
}
