"""Feature schema for the 26-feature ICU grid.

The feature set is fixed: 5 general, 18 vital, 2 diagnosis, 1 therapy
features, in a canonical order shared by every client. Categorical
features carry an explicit code list; their stored grid values are
integer codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SchemaError(ValueError):
    pass


@dataclass(frozen=True)
class FeatureSpec:
    name: str
    category: str  # general | vital | diagnosis | therapy
    kind: str  # continuous | binary | categorical
    codes: tuple[str, ...] = ()  # only for categorical

    def encode(self, value):
        """Map a raw CSV value onto the numeric grid value."""
        if self.kind == "categorical":
            try:
                return float(self.codes.index(str(value)))
            except ValueError:
                raise SchemaError(
                    f"unknown code {value!r} for feature {self.name!r}; "
                    f"expected one of {list(self.codes)}"
                ) from None
        return float(value)

    def decode(self, value: float):
        if self.kind == "categorical":
            return self.codes[int(round(value))]
        if self.kind == "binary":
            return int(round(value))
        return value


GENDER_CODES = ("F", "M")
ETHNICITY_CODES = ("WHITE", "BLACK", "HISPANIC", "ASIAN", "NATIVE", "OTHER")

# Static per-stay features, taken from the static CSV.
STATIC_FEATURES = (
    FeatureSpec("gender", "general", "categorical", GENDER_CODES),
    FeatureSpec("ethnicity", "general", "categorical", ETHNICITY_CODES),
    FeatureSpec("age", "general", "continuous"),
    FeatureSpec("height", "general", "continuous"),
    FeatureSpec("weight", "general", "continuous"),
    FeatureSpec("diabetes", "diagnosis", "binary"),
)

# Time-varying features, taken from the long-format timeseries CSV.
TIMESERIES_FEATURES = (
    FeatureSpec("platelet", "vital", "continuous"),
    FeatureSpec("leukocytes", "vital", "continuous"),
    FeatureSpec("po2", "vital", "continuous"),
    FeatureSpec("fio2", "vital", "continuous"),
    FeatureSpec("lactate", "vital", "continuous"),
    FeatureSpec("creatinine", "vital", "continuous"),
    FeatureSpec("bilirubin", "vital", "continuous"),
    FeatureSpec("gcs", "vital", "continuous"),
    FeatureSpec("crp", "vital", "continuous"),
    FeatureSpec("diastolic_bp", "vital", "continuous"),
    FeatureSpec("systolic_bp", "vital", "continuous"),
    FeatureSpec("mean_bp", "vital", "continuous"),
    FeatureSpec("resp_rate", "vital", "continuous"),
    FeatureSpec("temperature", "vital", "continuous"),
    FeatureSpec("spo2", "vital", "continuous"),
    FeatureSpec("urine_output", "vital", "continuous"),
    FeatureSpec("glucose", "vital", "continuous"),
    FeatureSpec("heart_rate", "vital", "continuous"),
    FeatureSpec("sofa", "diagnosis", "continuous"),
    FeatureSpec("mech_vent", "therapy", "binary"),
)

ICU_NAMES = ("MICU", "MICU/SICU", "SICU", "TSICU", "CCU", "CVICU", "NSICU")

N_HOURS = 30  # hourly capture grid [0, 30)
INPUT_WINDOW = 6  # consecutive hours fed to the model
MAX_HORIZON = N_HOURS - INPUT_WINDOW + 1  # 25


@dataclass(frozen=True)
class FeatureSchema:
    features: tuple[FeatureSpec, ...]
    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate feature names")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    @property
    def n_features(self) -> int:
        return len(self.features)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"unknown feature name {name!r}") from None

    def __getitem__(self, name: str) -> FeatureSpec:
        return self.features[self.index(name)]


def default_schema() -> FeatureSchema:
    """Canonical 26-feature schema: general, vitals, diagnoses, therapy."""
    general = [f for f in STATIC_FEATURES if f.category == "general"]
    vitals = [f for f in TIMESERIES_FEATURES if f.category == "vital"]
    diagnoses = [STATIC_FEATURES[5]] + [
        f for f in TIMESERIES_FEATURES if f.category == "diagnosis"
    ]
    therapy = [f for f in TIMESERIES_FEATURES if f.category == "therapy"]
    schema = FeatureSchema(tuple(general + vitals + diagnoses + therapy))
    assert schema.n_features == 26
    return schema
