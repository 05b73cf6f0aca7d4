package cods

import "unsafe"

// hostCells is the byte view of cells as this process stores them: the
// same memory, ElemSize bytes a cell in the host's byte order, nothing
// copied. This file is the one place a product file of the repository
// imports unsafe or carries a go:linkname directive; the view is only
// read, and only while cells is alive.
func hostCells(cells []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(cells))), len(cells)*ElemSize)
}

// uninitCells returns n cells of fresh heap memory that is not cleared
// first: until a cell is written it holds whatever a freed object left
// there. Only pull uses it, whose schedules tile their region (tiles) and
// whose segments are counted, so every cell is written exactly once before
// the result is returned. The memory holds no pointers, so the collector
// never scans it.
func uninitCells(n int64) []float64 {
	return unsafe.Slice((*float64)(mallocgc(uintptr(n)*ElemSize, nil, false)), n)
}

// mallocgc is the runtime's allocator. Its signature is fixed for callers
// outside the runtime (go.dev/issue/67401); a nil type allocates memory
// without pointers, and needzero false skips clearing it.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer
