"""Differentially private density estimation with masked autoregressive
flows: budget-gated noisy training, two privacy accountants, synthetic data
generation and anomaly detection."""

from .accounting import (Accountant, exp_mech_binary, gdp_delta_for_eps,
                         gdp_eps_for_delta, gdp_mu, laplace_noise, rdp_curve,
                         rdp_to_dp, steps_for_budget)
from .anomaly import (EnsembleDetector, RocCurve, build_ensemble,
                      gen_tail_anomalies, partition_indices, roc,
                      select_threshold)
from .data import (Dataset, dimwise_histogram, gen_gaussians8, gen_half_moons,
                   gen_pinwheel, knn_regress_mse, load_csv, make_cv_splits,
                   pca_project, save_csv, standardize)
from .flows import (ActNormLayer, FlowModel, GmmBase, MadeLayer,
                    ReversalLayer, SphericalGaussian, build_maf)
from .gmm import GmmParams, gmm_fit_em, gmm_logpdf, gmm_sample
from .initialization import InitConfig, dp_nf_init, laplace_init_scale
from .training import (OptimizerState, TrainConfig, TrainReport, apply_update,
                       noisy_mean, train_dp_nf, train_flow)

__version__ = "0.1.0"
