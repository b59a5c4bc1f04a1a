package workload

import (
	"repro/internal/trace"
)

// Communication-pattern builders. All point-to-point exchanges order sends
// and receives with the classic parity trick (even position sends first) so
// that rendezvous-protocol messages never deadlock, exactly as well-written
// MPI codes do.

// ringExchange appends a one-direction ring shift (each rank sends a
// message of base size to (r+1) mod n and receives from (r−1+n) mod n) to
// every rank's timeline.
func ringExchange(e *emitter, n int, base int64, tag int) {
	if n < 2 {
		return
	}
	for r := 0; r < n; r++ {
		right := (r + 1) % n
		left := (r - 1 + n) % n
		if r%2 == 0 {
			e.scaled(r, trace.Send(right, 0, tag), base)
			e.scaled(r, trace.Recv(left, 0, tag), base)
		} else {
			e.scaled(r, trace.Recv(left, 0, tag), base)
			e.scaled(r, trace.Send(right, 0, tag), base)
		}
	}
}

// gridDims factors n into nx·ny with nx as close to √n as possible.
func gridDims(n int) (nx, ny int) {
	nx = 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			nx = d
		}
	}
	return nx, n / nx
}

// haloExchange2D appends a four-neighbour (torus) halo exchange over an
// nx×ny process grid: one ring shift per direction along each axis. Rank r
// sits at (r mod nx, r div nx). Every message has the base size. Axes of
// length 1 are skipped. Tags tagBase through tagBase+3 are used.
func haloExchange2D(e *emitter, nx, ny int, base int64, tagBase int) {
	n := nx * ny
	// X axis: +1 and −1 shifts within each row.
	if nx >= 2 {
		for dir := 0; dir < 2; dir++ {
			tag := tagBase + dir
			for r := 0; r < n; r++ {
				ix, iy := r%nx, r/nx
				var dst, src int
				if dir == 0 {
					dst = iy*nx + (ix+1)%nx
					src = iy*nx + (ix-1+nx)%nx
				} else {
					dst = iy*nx + (ix-1+nx)%nx
					src = iy*nx + (ix+1)%nx
				}
				if ix%2 == 0 {
					e.scaled(r, trace.Send(dst, 0, tag), base)
					e.scaled(r, trace.Recv(src, 0, tag), base)
				} else {
					e.scaled(r, trace.Recv(src, 0, tag), base)
					e.scaled(r, trace.Send(dst, 0, tag), base)
				}
			}
		}
	}
	// Y axis: +1 and −1 shifts within each column.
	if ny >= 2 {
		for dir := 0; dir < 2; dir++ {
			tag := tagBase + 2 + dir
			for r := 0; r < n; r++ {
				ix, iy := r%nx, r/nx
				var dst, src int
				if dir == 0 {
					dst = ((iy+1)%ny)*nx + ix
					src = ((iy-1+ny)%ny)*nx + ix
				} else {
					dst = ((iy-1+ny)%ny)*nx + ix
					src = ((iy+1)%ny)*nx + ix
				}
				if iy%2 == 0 {
					e.scaled(r, trace.Send(dst, 0, tag), base)
					e.scaled(r, trace.Recv(src, 0, tag), base)
				} else {
					e.scaled(r, trace.Recv(src, 0, tag), base)
					e.scaled(r, trace.Send(dst, 0, tag), base)
				}
			}
		}
	}
}

// collective appends the same collective record, with a per-rank payload of
// base size, to every rank.
func collective(e *emitter, n int, c trace.Collective, base int64) {
	for r := 0; r < n; r++ {
		e.scaled(r, trace.Coll(c, 0), base)
	}
}

// allReduce appends a scalar reduction (a dot product, a residual norm) of
// fixed size to every rank: its payload does not grow with the exchanged
// data, so the calibration never scales it.
func allReduce(e *emitter, n int, bytes int64) {
	for r := 0; r < n; r++ {
		e.add(r, trace.Coll(trace.CollAllReduce, bytes))
	}
}

// computePhase appends per-rank computation bursts (seconds at fmax).
func computePhase(e *emitter, loads []float64) {
	for r, w := range loads {
		e.add(r, trace.Compute(w))
	}
}
