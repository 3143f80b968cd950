// Package superpose implements the linear superposition baseline
// ([Jung DAC'12], [Jung CACM'14] in the paper's references): the stress
// deviation field of a single TSV is obtained once by high-fidelity FEM, and
// the array stress is estimated as background + Σ per-TSV deviations. The
// method is fast but ignores TSV–TSV coupling and local variations of the
// background stress — exactly the inaccuracy the paper quantifies.
package superpose

import (
	"fmt"
	"time"

	"repro/internal/fem"
	"repro/internal/field"
	"repro/internal/material"
	"repro/internal/mesh"
	"repro/internal/reffem"
	"repro/internal/solver"
	"repro/internal/sparse"
)

// Kernel holds the one-shot single-TSV data: the mid-plane stress deviation
// field Δσ(r) = σ_single(r) − σ_background(r) for ΔT = 1, sampled on a
// (2R+1)·GS square grid over a (2R+1)×(2R+1)-block neighbourhood of one TSV,
// plus the far-field background stress tensor.
type Kernel struct {
	Geom mesh.TSVGeometry
	// R is the neighbourhood radius in blocks (deviations beyond R blocks
	// are truncated to zero).
	R int
	// GS is the number of samples per block edge.
	GS int
	// Dev is the deviation tensor field (Voigt), row-major over the
	// (2R+1)·GS square sample grid, for ΔT = 1.
	Dev [][6]float64
	// Bg is the background (no-TSV) mid-plane stress for ΔT = 1, taken at
	// the neighbourhood center.
	Bg [6]float64
	// BuildTime is the one-shot cost of the kernel.
	BuildTime time.Duration
}

// BuildKernel performs the one-shot single-TSV FEM solves: a single TSV
// embedded in a (2R+1)×(2R+1) silicon neighbourhood, and the same
// neighbourhood without the TSV, both clamped top and bottom. The deviation
// of the two mid-plane stress fields is the superposition kernel.
func BuildKernel(geom mesh.TSVGeometry, mats material.TSVSet, res mesh.BlockResolution, r, gs int, opt solver.Options, workers int) (*Kernel, error) {
	if r < 1 {
		return nil, fmt.Errorf("superpose: radius must be >= 1, got %d", r)
	}
	start := time.Now()
	nb := 2*r + 1
	center := r

	single, err := reffem.Solve(&reffem.Problem{
		Geom: geom, Mats: mats, Res: res,
		Bx: nb, By: nb,
		IsDummy: func(bx, by int) bool { return bx != center || by != center },
		DeltaT:  1,
		BC:      reffem.ClampedTopBottom,
		Opt:     opt, Workers: workers,
	})
	if err != nil {
		return nil, fmt.Errorf("superpose: single-TSV solve: %w", err)
	}
	bg, err := reffem.Solve(&reffem.Problem{
		Geom: geom, Mats: mats, Res: res,
		Bx: nb, By: nb,
		IsDummy: func(bx, by int) bool { return true },
		DeltaT:  1,
		BC:      reffem.ClampedTopBottom,
		Opt:     opt, Workers: workers,
	})
	if err != nil {
		return nil, fmt.Errorf("superpose: background solve: %w", err)
	}

	ext := nb * gs
	dev := make([][6]float64, ext*ext)
	zCut := geom.Height / 2
	sparse.ForChunks(ext, workers, func(_, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			y := (float64(iy) + 0.5) * geom.Pitch / float64(gs)
			for ix := 0; ix < ext; ix++ {
				x := (float64(ix) + 0.5) * geom.Pitch / float64(gs)
				p := mesh.Vec3{X: x, Y: y, Z: zCut}
				ss := single.Model.StressAtPoint(single.U, 1, p)
				sb := bg.Model.StressAtPoint(bg.U, 1, p)
				var d [6]float64
				for c := 0; c < 6; c++ {
					d[c] = ss[c] - sb[c]
				}
				dev[iy*ext+ix] = d
			}
		}
	})

	// Background far-field stress: center-block center sample.
	cMid := mesh.Vec3{
		X: (float64(center) + 0.5) * geom.Pitch,
		Y: (float64(center) + 0.5) * geom.Pitch,
		Z: zCut,
	}
	bgS := bg.Model.StressAtPoint(bg.U, 1, cMid)

	return &Kernel{
		Geom: geom, R: r, GS: gs,
		Dev: dev, Bg: bgS,
		BuildTime: time.Since(start),
	}, nil
}

// EstimateArray estimates the mid-plane von Mises field of a Bx×By array at
// thermal load deltaT by tensor superposition of the kernel over every TSV
// block: σ(r) ≈ σ_bg(r) + ΔT·Σ_k Δσ(r − r_k). The optional background
// supplies a spatially varying absolute background stress (already at the
// actual ΔT, e.g. interpolated from a coarse package model); nil uses the
// uniform far-field kernel background scaled by ΔT. isTSV marks blocks
// carrying TSVs (nil = all).
func (k *Kernel) EstimateArray(bx, by int, isTSV func(bx, by int) bool, deltaT float64, gs int, background func(x, y float64) [6]float64, workers int) *field.Grid2D {
	if gs != k.GS {
		panic(fmt.Sprintf("superpose: sampling grid %d differs from kernel grid %d", gs, k.GS))
	}
	out := field.New(bx*gs, by*gs)
	ext := (2*k.R + 1) * gs

	// List the TSV block coordinates once.
	type blk struct{ x, y int }
	var tsvs []blk
	for byy := 0; byy < by; byy++ {
		for bxx := 0; bxx < bx; bxx++ {
			if isTSV == nil || isTSV(bxx, byy) {
				tsvs = append(tsvs, blk{bxx, byy})
			}
		}
	}

	sparse.ForChunks(out.NY, workers, func(_, lo, hi int) {
		for iy := lo; iy < hi; iy++ {
			sampleBy := iy / gs
			gy := iy % gs
			for ix := 0; ix < out.NX; ix++ {
				sampleBx := ix / gs
				gx := ix % gs
				var s [6]float64
				if background != nil {
					x := (float64(ix) + 0.5) * k.Geom.Pitch / float64(gs)
					y := (float64(iy) + 0.5) * k.Geom.Pitch / float64(gs)
					s = background(x, y)
				} else {
					for c := 0; c < 6; c++ {
						s[c] = deltaT * k.Bg[c]
					}
				}
				for _, t := range tsvs {
					dbx := sampleBx - t.x
					dby := sampleBy - t.y
					if dbx < -k.R || dbx > k.R || dby < -k.R || dby > k.R {
						continue
					}
					kx := (dbx+k.R)*gs + gx
					ky := (dby+k.R)*gs + gy
					d := &k.Dev[ky*ext+kx]
					for c := 0; c < 6; c++ {
						s[c] += deltaT * d[c]
					}
				}
				out.Set(ix, iy, fem.VonMises(s))
			}
		}
	})
	return out
}
