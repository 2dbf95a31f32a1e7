// Package pfs implements the paper's parallel file system layout: pages
// (equated with disk blocks, as in the paper) are stored in groups of 32
// consecutive pages, and groups are assigned to the I/O-enabled nodes'
// disks in round-robin fashion.
package pfs

import (
	"fmt"

	"nwcache/internal/param"
)

// Layout maps virtual page numbers to (disk, block) placements.
type Layout struct {
	group   int   // pages per striping group
	ioNodes []int // node ids that host disks, in round-robin order
}

// New builds a layout for the configuration. The I/O-enabled nodes are
// spread across the machine (every Nodes/IONodes-th node hosts a disk),
// matching architectures where not all nodes are I/O-enabled.
func New(cfg param.Config) *Layout {
	stride := cfg.Nodes / cfg.IONodes
	if stride < 1 {
		stride = 1
	}
	l := &Layout{group: cfg.StripeGroup}
	for i := 0; i < cfg.IONodes; i++ {
		l.ioNodes = append(l.ioNodes, (i*stride)%cfg.Nodes)
	}
	return l
}

// IONodes returns the node ids hosting disks, in disk-index order.
func (l *Layout) IONodes() []int { return append([]int(nil), l.ioNodes...) }

// DiskFor returns the disk index storing the given virtual page.
func (l *Layout) DiskFor(page int64) int {
	if page < 0 {
		panic(fmt.Sprintf("pfs: negative page %d", page))
	}
	return int((page / int64(l.group)) % int64(len(l.ioNodes)))
}

// NodeFor returns the node id whose disk stores the given page.
func (l *Layout) NodeFor(page int64) int { return l.ioNodes[l.DiskFor(page)] }

// BlockFor returns the block number of the page on its disk. Groups map to
// consecutive block runs so that consecutive pages within a group occupy
// consecutive blocks — the property the disk's write combining exploits.
func (l *Layout) BlockFor(page int64) int64 {
	g := int64(l.group)
	groupIdx := page / g
	groupOnDisk := groupIdx / int64(len(l.ioNodes))
	return groupOnDisk*g + page%g
}
