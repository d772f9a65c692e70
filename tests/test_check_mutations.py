"""Every ``verify`` check names a mutation of what it audits, and that mutation must fail it.

The check names come from the demo audit's report, so a check added without
an entry in ``REJECTS`` or ``STILL_PASSES`` fails the first test.  Each
mutation is applied by monkeypatch and the suite run again at 5001 MI and
200 003 moment draws.  ``STILL_PASSES`` lists the checks that cannot yet
reject their mutation, each with the ROADMAP item that mends it; the test
asserts that they still pass, so the change that mends one must move it into
``REJECTS``.  README "Command line" tabulates the z-scores at the default
budget.
"""

import math
import re
from pathlib import Path

import pytest

import fadecap.channel
import fadecap.oracle
from fadecap import cli
from fadecap.direct import LogUniformX2, SchemeParams
from fadecap.fading import IidGaussian
from fadecap.record import replace

DEMO = cli.load_config(Path(__file__).resolve().parent.parent / "configs" / "demo.json")
BUDGET = {"samples_mi": 5001, "samples_moments": 200_003}


def louder_tap(patch, ell):
    """Tap ``ell``'s gains drawn with alpha x 1.05 where the log-gain audit samples them."""
    target, mc_log_gain = DEMO.channel.path_specs[ell], cli.mc_log_gain

    def mutated(spec, n_samples, seed):
        return mc_log_gain(replace(spec, alpha=1.05 * spec.alpha) if spec == target else spec, n_samples, seed)

    patch.setattr(cli, "mc_log_gain", mutated)


def white_tap(patch, ell):
    """Tap ``ell`` simulated as white gains of the same variance: its pole, and so its entropy rate, dropped."""
    target, sample_paths = DEMO.channel.path_specs[ell], fadecap.channel.sample_paths

    def mutated(spec, *args, **kwargs):
        return sample_paths(IidGaussian(spec.alpha) if spec == target else spec, *args, **kwargs)

    patch.setattr(fadecap.channel, "sample_paths", mutated)


def raised_schedule(patch, _):
    """Every slot's magnitudes x log P: the schedule without its log log P back-off."""
    slot_law = SchemeParams.slot_law

    def mutated(self, nu):
        law, shift = slot_law(self, nu), math.log(self.log_power)
        return LogUniformX2(law.log_min + shift, law.log_max + shift)

    patch.setattr(SchemeParams, "slot_law", mutated)


def heavier_block_power(patch, _):
    """The closed-form block-average power 1 % high."""
    closed_form = cli.log_block_average_power
    patch.setattr(cli, "log_block_average_power", lambda scheme: closed_form(scheme) + math.log(1.01))


def louder_channel(patch, _):
    """Every tap's alpha x 1.1 in the simulated channel."""
    output_at = fadecap.oracle.output_at

    def mutated(config, k, x, seed):
        louder = tuple(replace(spec, alpha=1.1 * spec.alpha) for spec in config.path_specs)
        return output_at(replace(config, path_specs=louder), k, x, seed)

    patch.setattr(fadecap.oracle, "output_at", mutated)


def noiseless_lemma(patch, _):
    """The lemma's bound without its noise term, sigma_w = 0."""
    lemma = cli.lemma_mi_lower_bound
    patch.setattr(cli, "lemma_mi_lower_bound", lambda **kwargs: lemma(**{**kwargs, "sigma_w": 0.0}))


# check (``<l>`` for a path index) -> the mutation it fails
REJECTS = {
    "mean_log_gain_path_<l>": louder_tap,
    "block_power_admissible": raised_schedule,
    "block_power_mc": heavier_block_power,
    "second_moment_identity": louder_channel,
}
# check -> (the mutation it still passes, the ROADMAP item that mends it)
STILL_PASSES = {
    "entropy_rate_path_<l>": (white_tap, "item 15"),
    "log_moment_upper": (louder_channel, "item 12(b)"),
    "lemma_mi_bound": (noiseless_lemma, "item 4"),
}


def template(check):
    return re.sub(r"_path_\d+$", "_path_<l>", check)


def mutated_report(check, mutation):
    """``check``'s report from the suite run with ``mutation`` applied to its path, if it has one."""
    path = re.search(r"_path_(\d+)$", check)
    with pytest.MonkeyPatch.context() as patch:
        mutation(patch, int(path.group(1)) if path else None)
        (report,) = [r for r in cli.run_verification_suite(DEMO, **BUDGET) if r.check == check]
    return report


@pytest.fixture(scope="module")
def checks():
    reports = cli.run_verification_suite(DEMO, **BUDGET)
    assert all(r.passed for r in reports), [r for r in reports if not r.passed]
    return [r.check for r in reports]


def test_every_check_has_one_entry(checks):
    assert not set(REJECTS) & set(STILL_PASSES)
    assert {template(check) for check in checks} == set(REJECTS) | set(STILL_PASSES)


def test_each_mutation_fails_its_check(checks):
    passed = [
        check
        for check in checks
        if template(check) in REJECTS and mutated_report(check, REJECTS[template(check)]).passed
    ]
    assert not passed, f"these checks passed the mutation they must reject: {passed}"


def test_listed_checks_still_pass_their_mutation(checks):
    # a check that now fails its mutation is mended: move it into REJECTS
    mended = [
        check
        for check in checks
        if template(check) in STILL_PASSES and not mutated_report(check, STILL_PASSES[template(check)][0]).passed
    ]
    assert not mended, f"these checks now reject their mutation; move them into REJECTS: {mended}"
