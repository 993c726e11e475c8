// Package plot renders the paper's figures with the standard library only:
// an ASCII renderer for terminals and an SVG renderer for files. It supports
// line series, shaded percentile bands (the blue 5th–95th regions of
// Figure 2) and horizontal reference lines (the fair-area dashes).
package plot

import (
	"fmt"
	"math"
	"strings"
)

// Series is a named sequence of (X, Y) points.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Band is a shaded region between two curves sharing X coordinates, used
// for percentile envelopes.
type Band struct {
	Name string
	X    []float64
	Lo   []float64
	Hi   []float64
}

// HLine is a horizontal reference line (e.g. the fair-area boundaries).
type HLine struct {
	Name string
	Y    float64
}

// Chart is a single figure.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Bands  []Band
	HLines []HLine

	// Optional fixed Y range; when YMax <= YMin the range is derived
	// from the data.
	YMin, YMax float64
	// LogX renders the X axis on a log10 scale (used by the long-horizon
	// SL-PoS runs of Figure 4).
	LogX bool
}

// AddSeries appends a line series.
func (c *Chart) AddSeries(name string, x, y []float64) {
	c.Series = append(c.Series, Series{Name: name, X: x, Y: y})
}

// AddBand appends a shaded band.
func (c *Chart) AddBand(name string, x, lo, hi []float64) {
	c.Bands = append(c.Bands, Band{Name: name, X: x, Lo: lo, Hi: hi})
}

// AddHLine appends a horizontal reference line.
func (c *Chart) AddHLine(name string, y float64) {
	c.HLines = append(c.HLines, HLine{Name: name, Y: y})
}

// dataRange computes the plot ranges across all elements.
func (c *Chart) dataRange() (xMin, xMax, yMin, yMax float64) {
	xMin, xMax = math.Inf(1), math.Inf(-1)
	yMin, yMax = math.Inf(1), math.Inf(-1)
	scan := func(xs, ys []float64) {
		for i := range xs {
			if i < len(ys) {
				x, y := xs[i], ys[i]
				if math.IsNaN(x) || math.IsNaN(y) {
					continue
				}
				xMin = math.Min(xMin, x)
				xMax = math.Max(xMax, x)
				yMin = math.Min(yMin, y)
				yMax = math.Max(yMax, y)
			}
		}
	}
	for _, s := range c.Series {
		scan(s.X, s.Y)
	}
	for _, b := range c.Bands {
		scan(b.X, b.Lo)
		scan(b.X, b.Hi)
	}
	for _, h := range c.HLines {
		yMin = math.Min(yMin, h.Y)
		yMax = math.Max(yMax, h.Y)
	}
	if c.YMax > c.YMin {
		yMin, yMax = c.YMin, c.YMax
	}
	if math.IsInf(xMin, 1) { // empty chart
		xMin, xMax, yMin, yMax = 0, 1, 0, 1
	}
	if xMin == xMax {
		xMax = xMin + 1
	}
	if yMin == yMax {
		yMax = yMin + 1
	}
	return xMin, xMax, yMin, yMax
}

func (c *Chart) xt(x float64) float64 {
	if c.LogX && x > 0 {
		return math.Log10(x)
	}
	return x
}

// markers cycle through the series of an ASCII chart.
var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// ASCII renders the chart as fixed-width text of the given interior size.
// Bands render as ':' fill; series points overwrite band fill; reference
// lines render as '-'.
func (c *Chart) ASCII(width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	xMin, xMax, yMin, yMax := c.dataRange()
	txMin, txMax := c.xt(xMin), c.xt(xMax)
	if txMin == txMax {
		txMax = txMin + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	col := func(x float64) int {
		f := (c.xt(x) - txMin) / (txMax - txMin)
		i := int(math.Round(f * float64(width-1)))
		return clampInt(i, 0, width-1)
	}
	row := func(y float64) int {
		f := (y - yMin) / (yMax - yMin)
		i := int(math.Round(f * float64(height-1)))
		return height - 1 - clampInt(i, 0, height-1) // invert: top is max
	}
	// Bands first (lowest layer).
	for _, b := range c.Bands {
		for i := range b.X {
			if i >= len(b.Lo) || i >= len(b.Hi) {
				break
			}
			cx := col(b.X[i])
			rLo, rHi := row(b.Lo[i]), row(b.Hi[i])
			if rLo < rHi {
				rLo, rHi = rHi, rLo
			}
			for r := rHi; r <= rLo; r++ {
				grid[r][cx] = ':'
			}
		}
	}
	// Reference lines.
	for _, h := range c.HLines {
		r := row(h.Y)
		for x := 0; x < width; x++ {
			if grid[r][x] == ' ' || grid[r][x] == ':' {
				grid[r][x] = '-'
			}
		}
	}
	// Series on top.
	for si, s := range c.Series {
		m := markers[si%len(markers)]
		for i := range s.X {
			if i >= len(s.Y) || math.IsNaN(s.Y[i]) {
				continue
			}
			grid[row(s.Y[i])][col(s.X[i])] = m
		}
	}
	var b strings.Builder
	if c.Title != "" {
		fmt.Fprintf(&b, "%s\n", c.Title)
	}
	yTop := fmt.Sprintf("%.3g", yMax)
	yBot := fmt.Sprintf("%.3g", yMin)
	lw := len(yTop)
	if len(yBot) > lw {
		lw = len(yBot)
	}
	for i, line := range grid {
		label := strings.Repeat(" ", lw)
		switch i {
		case 0:
			label = fmt.Sprintf("%*s", lw, yTop)
		case height - 1:
			label = fmt.Sprintf("%*s", lw, yBot)
		}
		fmt.Fprintf(&b, "%s |%s|\n", label, line)
	}
	fmt.Fprintf(&b, "%s +%s+\n", strings.Repeat(" ", lw), strings.Repeat("-", width))
	xl, xr := fmt.Sprintf("%.4g", xMin), fmt.Sprintf("%.4g", xMax)
	gap := width - len(xl) - len(xr)
	if gap < 1 {
		gap = 1
	}
	fmt.Fprintf(&b, "%s  %s%s%s\n", strings.Repeat(" ", lw), xl, strings.Repeat(" ", gap), xr)
	if c.XLabel != "" || c.YLabel != "" {
		fmt.Fprintf(&b, "x: %s    y: %s\n", c.XLabel, c.YLabel)
	}
	var legend []string
	for si, s := range c.Series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	for _, bd := range c.Bands {
		legend = append(legend, fmt.Sprintf(": %s", bd.Name))
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "legend: %s\n", strings.Join(legend, " | "))
	}
	return b.String()
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// svgPalette are the stroke colours for SVG series.
var svgPalette = []string{
	"#d95319", "#0072bd", "#77ac30", "#7e2f8e", "#edb120", "#4dbeee", "#a2142f",
}

// SVG renders the chart as a standalone SVG document of the given pixel
// size. Output is deterministic for a given chart.
func (c *Chart) SVG(width, height int) string {
	if width < 100 {
		width = 100
	}
	if height < 80 {
		height = 80
	}
	const (
		marginL = 60.0
		marginR = 20.0
		marginT = 30.0
		marginB = 45.0
	)
	plotW := float64(width) - marginL - marginR
	plotH := float64(height) - marginT - marginB
	xMin, xMax, yMin, yMax := c.dataRange()
	txMin, txMax := c.xt(xMin), c.xt(xMax)
	if txMin == txMax {
		txMax = txMin + 1
	}
	px := func(x float64) float64 {
		return marginL + (c.xt(x)-txMin)/(txMax-txMin)*plotW
	}
	py := func(y float64) float64 {
		return marginT + (1-(y-yMin)/(yMax-yMin))*plotH
	}
	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", width, height, width, height)
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	if c.Title != "" {
		fmt.Fprintf(&b, `<text x="%g" y="20" font-family="sans-serif" font-size="14" text-anchor="middle">%s</text>`+"\n",
			marginL+plotW/2, escape(c.Title))
	}
	// Bands beneath everything.
	for _, bd := range c.Bands {
		if len(bd.X) == 0 {
			continue
		}
		var pts []string
		for i := range bd.X {
			if i < len(bd.Hi) {
				pts = append(pts, fmt.Sprintf("%.2f,%.2f", px(bd.X[i]), py(bd.Hi[i])))
			}
		}
		for i := len(bd.X) - 1; i >= 0; i-- {
			if i < len(bd.Lo) {
				pts = append(pts, fmt.Sprintf("%.2f,%.2f", px(bd.X[i]), py(bd.Lo[i])))
			}
		}
		fmt.Fprintf(&b, `<polygon points="%s" fill="#aec7e8" fill-opacity="0.6" stroke="none"/>`+"\n", strings.Join(pts, " "))
	}
	// Axes.
	fmt.Fprintf(&b, `<rect x="%g" y="%g" width="%g" height="%g" fill="none" stroke="black"/>`+"\n", marginL, marginT, plotW, plotH)
	// Reference lines.
	for _, h := range c.HLines {
		y := py(h.Y)
		fmt.Fprintf(&b, `<line x1="%g" y1="%.2f" x2="%g" y2="%.2f" stroke="black" stroke-dasharray="6,4"/>`+"\n",
			marginL, y, marginL+plotW, y)
	}
	// Series.
	for si, s := range c.Series {
		if len(s.X) == 0 {
			continue
		}
		var pts []string
		for i := range s.X {
			if i < len(s.Y) && !math.IsNaN(s.Y[i]) {
				pts = append(pts, fmt.Sprintf("%.2f,%.2f", px(s.X[i]), py(s.Y[i])))
			}
		}
		color := svgPalette[si%len(svgPalette)]
		fmt.Fprintf(&b, `<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>`+"\n", strings.Join(pts, " "), color)
	}
	// Tick labels.
	fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
		marginL, float64(height)-marginB+16, fmtTick(xMin))
	fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="middle">%s</text>`+"\n",
		marginL+plotW, float64(height)-marginB+16, fmtTick(xMax))
	fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
		marginL-6, marginT+plotH+4, fmtTick(yMin))
	fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11" text-anchor="end">%s</text>`+"\n",
		marginL-6, marginT+8, fmtTick(yMax))
	// Axis labels.
	if c.XLabel != "" {
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`+"\n",
			marginL+plotW/2, float64(height)-8, escape(c.XLabel))
	}
	if c.YLabel != "" {
		fmt.Fprintf(&b, `<text x="14" y="%g" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 14 %g)">%s</text>`+"\n",
			marginT+plotH/2, marginT+plotH/2, escape(c.YLabel))
	}
	// Legend.
	ly := marginT + 12
	for si, s := range c.Series {
		color := svgPalette[si%len(svgPalette)]
		fmt.Fprintf(&b, `<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="%s" stroke-width="2"/>`+"\n",
			marginL+8, ly, marginL+28, ly, color)
		fmt.Fprintf(&b, `<text x="%g" y="%g" font-family="sans-serif" font-size="11">%s</text>`+"\n",
			marginL+32, ly+4, escape(s.Name))
		ly += 14
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func fmtTick(v float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4g", v), "0"), ".")
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
