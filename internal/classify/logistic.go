package classify

import (
	"fmt"
	"math"
)

// LogisticConfig controls batch gradient-descent training.
type LogisticConfig struct {
	// LearningRate is the step size (per averaged gradient). Zero selects
	// the default of 0.5.
	LearningRate float64
	// Epochs is the number of full-batch passes. Zero selects 300.
	Epochs int
	// L2 is the ridge penalty on weights (not the intercept).
	L2 float64
	// Momentum is the heavy-ball coefficient in [0,1). Zero disables it.
	Momentum float64
}

func (c LogisticConfig) withDefaults() LogisticConfig {
	if c.LearningRate == 0 {
		c.LearningRate = 0.5
	}
	if c.Epochs == 0 {
		c.Epochs = 300
	}
	return c
}

func (c LogisticConfig) validate() error {
	if c.LearningRate <= 0 || math.IsNaN(c.LearningRate) || math.IsInf(c.LearningRate, 0) {
		return fmt.Errorf("classify: invalid learning rate %v", c.LearningRate)
	}
	if c.Epochs <= 0 {
		return fmt.Errorf("classify: invalid epochs %d", c.Epochs)
	}
	if c.L2 < 0 {
		return fmt.Errorf("classify: negative L2 %v", c.L2)
	}
	if c.Momentum < 0 || c.Momentum >= 1 {
		return fmt.Errorf("classify: momentum %v outside [0,1)", c.Momentum)
	}
	return nil
}

// Logistic is a trained binary logistic-regression model.
type Logistic struct {
	W []float64
	B float64
	// FinalLoss is the regularized mean negative log-likelihood after the
	// last epoch.
	FinalLoss float64
}

// Sigmoid is the logistic function, exposed for reuse by the fairness-
// regularized trainer.
func Sigmoid(z float64) float64 {
	// Guard against overflow for very negative z.
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// TrainLogistic fits a logistic regression to the dataset with full-batch
// gradient descent. Training is deterministic: no randomness is involved.
func TrainLogistic(ds Dataset, cfg LogisticConfig) (*Logistic, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("classify: empty dataset")
	}
	n := ds.Len()
	width := ds.Width()
	m := &Logistic{W: make([]float64, width)}
	gradW := make([]float64, width)
	velW := make([]float64, width)
	var velB float64
	invN := 1 / float64(n)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for j := range gradW {
			gradW[j] = 0
		}
		gradB := 0.0
		loss := 0.0
		for i := 0; i < n; i++ {
			row := ds.X[i]
			p := Sigmoid(m.score(row))
			diff := p - float64(ds.Y[i])
			for j, x := range row {
				if x != 0 {
					gradW[j] += diff * x
				}
			}
			gradB += diff
			loss += crossEntropy(p, ds.Y[i])
		}
		for j := range gradW {
			gradW[j] = gradW[j]*invN + cfg.L2*m.W[j]
			loss += 0.5 * cfg.L2 * m.W[j] * m.W[j]
		}
		gradB *= invN
		for j := range m.W {
			velW[j] = cfg.Momentum*velW[j] - cfg.LearningRate*gradW[j]
			m.W[j] += velW[j]
		}
		velB = cfg.Momentum*velB - cfg.LearningRate*gradB
		m.B += velB
		m.FinalLoss = loss * invN
	}
	return m, nil
}

func crossEntropy(p float64, y int) float64 {
	const floor = 1e-12
	if y == 1 {
		return -math.Log(math.Max(p, floor))
	}
	return -math.Log(math.Max(1-p, floor))
}

func (m *Logistic) score(row []float64) float64 {
	z := m.B
	for j, x := range row {
		if x != 0 {
			z += m.W[j] * x
		}
	}
	return z
}

// PredictProb returns P(y=1 | x).
func (m *Logistic) PredictProb(row []float64) float64 { return Sigmoid(m.score(row)) }

// Predict thresholds PredictProb at 0.5.
func (m *Logistic) Predict(row []float64) int {
	if m.PredictProb(row) >= 0.5 {
		return 1
	}
	return 0
}

// PredictAll returns hard predictions for every row.
func (m *Logistic) PredictAll(x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		out[i] = m.Predict(row)
	}
	return out
}

// PredictProbs returns P(y=1 | x) for every row.
func (m *Logistic) PredictProbs(x [][]float64) []float64 {
	out := make([]float64, len(x))
	for i, row := range x {
		out[i] = m.PredictProb(row)
	}
	return out
}
