package plot

import (
	"math"
	"strings"
	"testing"
)

func lineChart() *Chart {
	c := &Chart{Title: "T", XLabel: "blocks", YLabel: "lambda"}
	c.AddSeries("mean", []float64{0, 1, 2, 3}, []float64{0.1, 0.2, 0.3, 0.4})
	return c
}

func TestASCIIContainsStructure(t *testing.T) {
	out := lineChart().ASCII(40, 10)
	if !strings.Contains(out, "T\n") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "*") {
		t.Error("series marker missing")
	}
	if !strings.Contains(out, "legend: * mean") {
		t.Errorf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "x: blocks") {
		t.Error("axis labels missing")
	}
}

func TestASCIIBandAndHLine(t *testing.T) {
	c := &Chart{}
	x := []float64{0, 1, 2}
	c.AddBand("band", x, []float64{0.1, 0.1, 0.1}, []float64{0.5, 0.5, 0.5})
	c.AddHLine("ref", 0.3)
	out := c.ASCII(30, 12)
	if !strings.Contains(out, ":") {
		t.Error("band fill missing")
	}
	if !strings.Contains(out, "-") {
		t.Error("hline missing")
	}
}

func TestASCIIEmptyChartDoesNotPanic(t *testing.T) {
	c := &Chart{Title: "empty"}
	out := c.ASCII(20, 5)
	if out == "" {
		t.Error("empty chart should still render a frame")
	}
}

func TestASCIITinyDimensionsClamped(t *testing.T) {
	out := lineChart().ASCII(1, 1)
	if len(out) == 0 {
		t.Error("clamped chart should render")
	}
}

func TestASCIIConstantSeries(t *testing.T) {
	c := &Chart{}
	c.AddSeries("flat", []float64{0, 1}, []float64{0.5, 0.5})
	out := c.ASCII(20, 6) // degenerate y-range must not divide by zero
	if !strings.Contains(out, "*") {
		t.Error("flat series missing")
	}
}

func TestASCIISkipsNaN(t *testing.T) {
	c := &Chart{}
	c.AddSeries("s", []float64{0, 1, 2}, []float64{0.1, math.NaN(), 0.3})
	out := c.ASCII(20, 6)
	grid := out[:strings.Index(out, "legend:")]
	count := strings.Count(grid, "*")
	if count != 2 {
		t.Errorf("expected 2 grid markers, got %d", count)
	}
}

func TestFixedYRange(t *testing.T) {
	c := &Chart{YMin: 0, YMax: 1}
	c.AddSeries("s", []float64{0, 1}, []float64{0.4, 0.6})
	out := c.ASCII(20, 6)
	if !strings.Contains(out, "1") || !strings.Contains(out, "0") {
		t.Errorf("fixed range labels missing:\n%s", out)
	}
}

func TestSVGWellFormed(t *testing.T) {
	c := lineChart()
	c.AddBand("b", []float64{0, 1, 2, 3}, []float64{0, 0.1, 0.1, 0.2}, []float64{0.3, 0.4, 0.5, 0.6})
	c.AddHLine("h", 0.25)
	out := c.SVG(400, 300)
	for _, want := range []string{"<svg", "</svg>", "<polyline", "<polygon", "stroke-dasharray"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Tag balance.
	if strings.Count(out, "<svg") != strings.Count(out, "</svg>") {
		t.Error("unbalanced svg tags")
	}
}

func TestSVGEscapesText(t *testing.T) {
	c := &Chart{Title: `a<b&"c"`}
	c.AddSeries("s<1>", []float64{0, 1}, []float64{0, 1})
	out := c.SVG(200, 150)
	if strings.Contains(out, "a<b") || strings.Contains(out, "s<1>") {
		t.Error("text not escaped")
	}
	if !strings.Contains(out, "a&lt;b&amp;") {
		t.Error("escape output wrong")
	}
}

func TestSVGDeterministic(t *testing.T) {
	a := lineChart().SVG(300, 200)
	b := lineChart().SVG(300, 200)
	if a != b {
		t.Error("SVG output not deterministic")
	}
}

func TestSVGMinimumSize(t *testing.T) {
	out := lineChart().SVG(1, 1)
	if !strings.Contains(out, `width="100"`) {
		t.Error("minimum width not enforced")
	}
}

func TestLogXMonotonePlacement(t *testing.T) {
	c := &Chart{LogX: true}
	c.AddSeries("s", []float64{1, 10, 100, 1000}, []float64{1, 2, 3, 4})
	out := c.ASCII(40, 8)
	if !strings.Contains(out, "*") {
		t.Error("log-x chart missing markers")
	}
}
