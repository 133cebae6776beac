"""The campaign pipeline's absolute output and its failure rule.

Every ``run_campaign`` goes through one supervised fan-out into one
sink.  These tests pin what comes out of it: the text rendering of the
quick campaign, hashed, so a refactor of the pipeline cannot drift
silently; and the rule that a run without fault-tolerance arguments
raises on a unit error instead of degrading.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.errors import SimulationError
from repro.faultinjection import campaign as campaign_module
from repro.faultinjection import quick_campaign_config, run_campaign
from repro.logs.columnar import ColumnarArchive

#: sha256 over the quick campaign's sorted ``*.log`` files, each hashed
#: as name, NUL, bytes, NUL (39,071 records on 19 nodes).
QUICK_CAMPAIGN_DIGEST = (
    "83f51e19224d29fb31afcb49bb7be3d5d68debfe46fa42fa8ff90c7534eaec4d"
)


def rendering_digest(archive: ColumnarArchive, out) -> str:
    archive.write_text_directory(out)
    digest = hashlib.sha256()
    for path in sorted(out.glob("*.log")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


class TestPinnedOutput:
    def test_quick_campaign_rendering_is_pinned(self, quick_campaign, tmp_path):
        assert isinstance(quick_campaign.archive, ColumnarArchive)
        assert quick_campaign.archive.n_records() == 39_071
        assert len(quick_campaign.archive.nodes) == 19
        assert rendering_digest(quick_campaign.archive, tmp_path) == (
            QUICK_CAMPAIGN_DIGEST
        )


class TestFailureRule:
    @pytest.fixture()
    def failing_unit(self, monkeypatch):
        config = quick_campaign_config()
        victim = sorted(campaign_module._CampaignContext(config).nodes_by_name)[0]
        original = campaign_module._simulate_node

        def simulate(ctx, name):
            if name == victim:
                raise RuntimeError(f"injected failure on {name}")
            return original(ctx, name)

        monkeypatch.setattr(campaign_module, "_simulate_node", simulate)
        return config, victim

    def test_plain_run_raises_on_a_unit_error(self, failing_unit):
        config, victim = failing_unit
        with pytest.raises(SimulationError, match=f"{victim}.*injected failure"):
            run_campaign(config, backend="serial")

    def test_fault_tolerant_run_degrades_instead(self, failing_unit, tmp_path):
        config, victim = failing_unit
        result = run_campaign(
            config, backend="serial", checkpoint_dir=tmp_path / "ckpt"
        )
        assert result.degraded is not None
        assert result.degraded.names() == [victim]
        assert victim not in result.tracks
