package experiments

import (
	"fmt"
	"strings"

	"repro/internal/census"
	"repro/internal/classify"
	"repro/internal/core"
)

// Table3Config controls the classifier sweep.
type Table3Config struct {
	Census census.Config
	// Training hyperparameters shared by every feature configuration.
	Logistic classify.LogisticConfig
	// Alpha is the Dirichlet smoothing of Eq. 7 used for every ε in the
	// table (the paper uses α = 1).
	Alpha float64
}

// table3FeatureSets lists the paper's eight feature configurations, in
// its row order.
var table3FeatureSets = [][]string{
	nil,
	{"nationality"},
	{"race"},
	{"gender"},
	{"gender", "nationality"},
	{"race", "nationality"},
	{"gender", "race"},
	{"gender", "race", "nationality"},
}

// paperTable3 holds the paper's reported (ε, amplification, error%) per
// row, keyed by the joined feature list.
var paperTable3 = map[string][3]float64{
	"none":                    {2.14, 0.074, 14.90},
	"nationality":             {1.95, -0.12, 14.92},
	"race":                    {2.65, 0.59, 15.18},
	"gender":                  {2.14, 0.074, 14.99},
	"gender,nationality":      {2.59, 0.53, 15.09},
	"race,nationality":        {2.58, 0.52, 15.17},
	"gender,race":             {2.71, 0.64, 15.01},
	"gender,race,nationality": {2.65, 0.59, 15.21},
}

// PaperTestDataEpsilon is the ε-DF of the paper's Adult test split under
// Eq. 7 with α = 1.
const PaperTestDataEpsilon = 2.06

// Table3Row is one feature configuration of the sweep.
type Table3Row struct {
	// Features names the protected attributes given to the classifier
	// ("none" for the withheld configuration).
	Features string
	// Epsilon is the classifier's DF on the test split (Eq. 7, α=1).
	Epsilon float64
	// Amplification is Epsilon − test-data ε (Section 4.1).
	Amplification float64
	// ErrorRate is the test misclassification rate in [0,1].
	ErrorRate float64
	// Paper values for the same row: ε, amplification, error in percent.
	PaperEpsilon, PaperAmplification, PaperErrorPct float64
}

// Table3Result reproduces the paper's Table 3.
type Table3Result struct {
	Rows []Table3Row
	// TestDataEpsilon is the ε of the test split itself (paper: 2.06).
	TestDataEpsilon float64
}

// Table3 trains one logistic regression per feature configuration and
// measures ε, bias amplification and test error.
func Table3(cfg Table3Config) (Table3Result, error) {
	if cfg.Alpha <= 0 {
		return Table3Result{}, fmt.Errorf("experiments: Table 3 needs alpha > 0")
	}
	train, test, err := census.Generate(cfg.Census)
	if err != nil {
		return Table3Result{}, err
	}
	space := census.Space()
	testCounts, err := census.IncomeCounts(space, test)
	if err != nil {
		return Table3Result{}, err
	}
	smTest, err := testCounts.Smoothed(cfg.Alpha, false)
	if err != nil {
		return Table3Result{}, err
	}
	testEps, err := core.Epsilon(smTest)
	if err != nil {
		return Table3Result{}, err
	}
	out := Table3Result{TestDataEpsilon: testEps.Epsilon}
	for _, features := range table3FeatureSets {
		key := "none"
		if len(features) > 0 {
			key = strings.Join(features, ",")
		}
		dsTrain, moments, err := census.Dataset(train, features, nil)
		if err != nil {
			return out, err
		}
		dsTest, _, err := census.Dataset(test, features, moments)
		if err != nil {
			return out, err
		}
		model, err := classify.TrainLogistic(dsTrain, cfg.Logistic)
		if err != nil {
			return out, err
		}
		preds := model.PredictAll(dsTest.X)
		errRate, err := classify.ErrorRate(dsTest.Y, preds)
		if err != nil {
			return out, err
		}
		predCounts, err := census.PredictionCounts(space, test, preds)
		if err != nil {
			return out, err
		}
		smPred, err := predCounts.Smoothed(cfg.Alpha, false)
		if err != nil {
			return out, err
		}
		algEps, err := core.Epsilon(smPred)
		if err != nil {
			return out, err
		}
		paper := paperTable3[key]
		out.Rows = append(out.Rows, Table3Row{
			Features:           key,
			Epsilon:            algEps.Epsilon,
			Amplification:      core.BiasAmplification(algEps, testEps),
			ErrorRate:          errRate,
			PaperEpsilon:       paper[0],
			PaperAmplification: paper[1],
			PaperErrorPct:      paper[2],
		})
	}
	return out, nil
}

// String renders the sweep with paper values side by side.
func (r Table3Result) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Features,
			f2(row.Epsilon), f2(row.PaperEpsilon),
			fmt.Sprintf("%+.2f", row.Amplification), fmt.Sprintf("%+.2f", row.PaperAmplification),
			pct(row.ErrorRate), fmt.Sprintf("%.2f%%", row.PaperErrorPct),
		})
	}
	body := renderTable(
		"Table 3: logistic regression DF per feature configuration (synthetic census)",
		[]string{"protected features", "eps", "paper", "amp", "paper", "error", "paper"},
		rows)
	return body + fmt.Sprintf("\ntest-data eps = %.3f (paper %.2f)\n", r.TestDataEpsilon, PaperTestDataEpsilon)
}
