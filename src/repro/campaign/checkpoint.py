"""Campaign checkpoint/resume: persist completed structure-group results.

A campaign killed mid-run (machine reclaimed, SIGKILL, power loss) should not
recompute the structure groups it already finished.  The checkpoint keys each
group's results on a **content fingerprint** — the same
:func:`~repro.bem.geometry_cache.array_fingerprint` machinery the geometry
and cluster-plan caches use — covering:

* the discretised mesh (element end points and radii, byte-exact),
* the effective soil (conductivities and thicknesses),
* every numeric knob that feeds the group's assemble/solve/safety pipeline,
* the group's scenario derivation table (indices, kinds, scaling ratios).

Matching on content rather than on names means a resumed run restores a
group **only** when it would recompute bit-identical results; any change to
the campaign invalidates exactly the groups it affects.

Writes are atomic (temp file + ``os.replace``), so a kill *during* a
checkpoint write leaves the previous consistent state on disk — the resumed
run recomputes at most the group whose write was interrupted.

Reads go through a restricted unpickler that resolves only the globals a
stored :class:`~repro.campaign.result.ScenarioResult` needs (the class
itself and NumPy's array reconstruction), so a crafted checkpoint file
cannot make the loader import or call anything else.
"""

from __future__ import annotations

import os
import pickle
from hashlib import blake2b
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.bem.geometry_cache import array_fingerprint
from repro.exceptions import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaign.result import ScenarioResult
    from repro.campaign.spec import Campaign

__all__ = ["CampaignCheckpoint", "structure_fingerprint"]

#: On-disk format version; bump on incompatible payload changes.
_FORMAT_VERSION = 1

#: The only globals a checkpoint may reference: the result class and the
#: NumPy helpers that rebuild its float64 arrays (``numpy.core`` is the
#: NumPy 1.x spelling of ``numpy._core``).
_ALLOWED_GLOBALS = frozenset(
    {
        ("repro.campaign.result", "ScenarioResult"),
        ("numpy", "dtype"),
        ("numpy._core.numeric", "_frombuffer"),
        ("numpy.core.numeric", "_frombuffer"),
    }
)


class _ResultUnpickler(pickle.Unpickler):
    """Unpickler that resolves only :data:`_ALLOWED_GLOBALS`."""

    def find_class(self, module: str, name: str) -> Any:
        if (module, name) not in _ALLOWED_GLOBALS:
            raise pickle.UnpicklingError(f"global {module}.{name} is not allowed")
        return super().find_class(module, name)


def structure_fingerprint(
    mesh: Any,
    soil_eff: Any,
    structure: Any,
    campaign: "Campaign",
) -> str:
    """Content fingerprint of one structure group's full computation.

    A pure function of everything that determines the group's results: the
    mesh bytes, the effective soil, the campaign's numeric knobs and the
    scenario derivation table.  Two runs agreeing on this key would produce
    bit-identical group results, so restoring from a checkpoint preserves the
    determinism contract.
    """
    p0, p1 = mesh.element_endpoints()
    mesh_digest = array_fingerprint(p0, p1, mesh.element_radii())
    base_spec = structure.base.spec
    parts = [
        f"format={_FORMAT_VERSION}",
        f"mesh={mesh_digest}",
        f"conductivities={tuple(soil_eff.conductivities)!r}",
        f"thicknesses={tuple(soil_eff.thicknesses)!r}",
        f"base_gpr={float(base_spec.gpr)!r}",
        f"base_scale={float(base_spec.soil_scale)!r}",
        f"tolerance={float(base_spec.tolerance)!r}",
        f"element_type={campaign.element_type!r}",
        f"n_gauss={campaign.n_gauss!r}",
        f"series={campaign.series_control!r}",
        f"adaptive={campaign.adaptive!r}",
        f"hierarchical={campaign.hierarchical!r}",
        f"solver={campaign.solver!r}",
        f"solver_tolerance={float(campaign.solver_tolerance)!r}",
        f"assess_safety={campaign.assess_safety!r}",
        f"safety={campaign.safety_margin!r},{campaign.safety_raster!r},"
        f"{campaign.fault_duration_s!r},{campaign.body_weight_kg!r},"
        f"{campaign.surface_resistivity!r},{campaign.surface_thickness!r}",
    ]
    for plan in structure.plans:
        parts.append(
            f"plan={plan.index}:{plan.spec.name}:{plan.kind}:"
            f"{plan.gpr_ratio!r}:{plan.scale_ratio!r}"
        )
    digest = blake2b(digest_size=16)
    for part in parts:
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


class CampaignCheckpoint:
    """Fingerprint-keyed store of completed structure-group results.

    One pickle file holds ``{fingerprint: [ScenarioResult, ...]}``.  The file
    is read once at construction (a missing file starts empty — the normal
    first run) and rewritten atomically after every completed group, so the
    on-disk state is always a consistent prefix of the campaign.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._groups: dict[str, list["ScenarioResult"]] = {}
        self.restored_keys: set[str] = set()
        if self.path.exists():
            try:
                with open(self.path, "rb") as stream:
                    payload = _ResultUnpickler(stream).load()
            except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as error:
                raise CheckpointError(
                    f"cannot read campaign checkpoint {self.path}: {error}"
                ) from error
            if (
                not isinstance(payload, dict)
                or payload.get("format") != _FORMAT_VERSION
            ):
                raise CheckpointError(
                    f"campaign checkpoint {self.path} has an unsupported format"
                )
            self._groups = dict(payload["groups"])

    @property
    def n_groups(self) -> int:
        """Number of completed structure groups currently stored."""
        return len(self._groups)

    def has(self, key: str) -> bool:
        return key in self._groups

    def restore(self, key: str) -> list["ScenarioResult"]:
        """The stored results of one group (marks the key as restored)."""
        self.restored_keys.add(key)
        return self._groups[key]

    def store(self, key: str, results: list["ScenarioResult"]) -> None:
        """Record one completed group and persist atomically."""
        self._groups[key] = list(results)
        self._flush()

    def _flush(self) -> None:
        payload = {"format": _FORMAT_VERSION, "groups": self._groups}
        # The temp name is unique per process: concurrent stores against one
        # checkpoint path (two campaigns, or a resumed run racing a stale
        # sibling) each stage their own file, and the atomic os.replace makes
        # the last full write win — never a torn mix of the two.
        tmp_path = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp_path, "wb") as stream:
                pickle.dump(payload, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, self.path)
        except OSError as error:
            raise CheckpointError(
                f"cannot write campaign checkpoint {self.path}: {error}"
            ) from error
