package cods

import "unsafe"

// hostCells is the byte view of cells as this process stores them: the
// same memory, ElemSize bytes a cell in the host's byte order, nothing
// copied. It is the one place a product file of the repository imports
// unsafe; the view is only read, and only while cells is alive.
func hostCells(cells []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(cells))), len(cells)*ElemSize)
}
