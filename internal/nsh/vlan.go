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
	vlanPathBits  = 7 // up to 128 service paths
	vlanIndexBits = 5 // up to 31 service indices per path
	maxVLANPath   = 1<<vlanPathBits - 1
	maxVLANIndex  = 1<<vlanIndexBits - 1
)

// errVLANOverflow is returned when a service path does not fit the vid split.
var errVLANOverflow = errors.New("nsh: service path does not fit in VLAN vid encoding")

// PackVLAN encodes (path, index) into a VLAN vid. Vid 0 is reserved
// (untagged), so path 0/index 0 maps to vid with index offset handled by the
// caller keeping index >= 1 for live paths.
func PackVLAN(path uint32, index uint8) (uint16, error) {
	if path > maxVLANPath {
		return 0, fmt.Errorf("%w: path %d > %d", errVLANOverflow, path, maxVLANPath)
	}
	if index > maxVLANIndex {
		return 0, fmt.Errorf("%w: index %d > %d", errVLANOverflow, index, maxVLANIndex)
	}
	vid := uint16(path)<<vlanIndexBits | uint16(index)
	if vid == 0 {
		return 0, fmt.Errorf("%w: (0,0) maps to reserved vid 0", errVLANOverflow)
	}
	return vid, nil
}
