"""Tests for the composed functional memory system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FunctionalMemorySystem, IntegrityViolation, SecDDRConfig, provisioned_memory_system
from repro.core import memory_system


class TestNormalOperation:
    def test_write_read_round_trip(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)
        assert secddr_memory.read(0x4000) == sample_line

    def test_multiple_lines(self, secddr_memory):
        for i in range(16):
            secddr_memory.write(0x10000 + i * 64, bytes([i]) * 64)
        for i in range(16):
            assert secddr_memory.read(0x10000 + i * 64) == bytes([i]) * 64

    def test_overwrite_returns_latest(self, secddr_memory):
        secddr_memory.write(0x4000, b"\x01" * 64)
        secddr_memory.write(0x4000, b"\x02" * 64)
        assert secddr_memory.read(0x4000) == b"\x02" * 64

    def test_counters_stay_synchronized(self, secddr_memory, sample_line):
        for i in range(8):
            secddr_memory.write(0x8000 + i * 64, sample_line)
            secddr_memory.read(0x8000 + i * 64)
        assert secddr_memory.counters_in_sync()

    def test_data_is_encrypted_at_rest(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)
        stored = secddr_memory.storage.read_line(0x4000)
        assert stored.data != sample_line

    def test_baseline_round_trip(self, baseline_memory, sample_line):
        baseline_memory.write(0x4000, sample_line)
        assert baseline_memory.read(0x4000) == sample_line

    def test_stats_counted(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)
        secddr_memory.read(0x4000)
        assert secddr_memory.stats.writes == 1
        assert secddr_memory.stats.reads == 1

    @given(
        payload=st.binary(min_size=64, max_size=64),
        line_index=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=15, deadline=None)
    def test_round_trip_property(self, payload, line_index):
        memory = FunctionalMemorySystem(initial_counter=0)
        address = line_index * 64
        memory.write(address, payload)
        assert memory.read(address) == payload


class TestTcbAndTopology:
    def test_untrusted_dimm_tcb_is_ecc_chips_only(self, secddr_memory):
        logic_roles = {c.role.value for c in secddr_memory.topology.security_logic_chips()}
        assert logic_roles == {"ecc_chip"}

    def test_trusted_module_places_logic_in_ecc_db(self):
        memory = FunctionalMemorySystem(trusted_module=True, initial_counter=0)
        logic_roles = {c.role.value for c in memory.topology.security_logic_chips()}
        assert logic_roles == {"ecc_data_buffer"}

    def test_per_rank_ecc_logic(self, secddr_memory):
        assert set(secddr_memory.ecc_chips) == {0, 1}


class TestReattestation:
    def test_reattest_clears_memory(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)
        secddr_memory.reattest(clear_memory=True)
        assert secddr_memory.storage.occupied_lines() == 0
        # New keys/counters still give a working system.
        secddr_memory.write(0x4000, sample_line)
        assert secddr_memory.read(0x4000) == sample_line

    def test_stale_preboot_state_unreadable_after_reattestation(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)
        image = secddr_memory.storage.snapshot()
        secddr_memory.reattest(clear_memory=True)
        # The attacker restores the pre-boot image, but the fresh keys and
        # counters make it unverifiable.
        secddr_memory.storage.restore(image)
        with pytest.raises(IntegrityViolation):
            secddr_memory.read(0x4000)

    def test_baseline_reattest_still_clears(self, baseline_memory, sample_line):
        baseline_memory.write(0x4000, sample_line)
        result = baseline_memory.reattest(clear_memory=True)
        assert result.memory_cleared
        assert baseline_memory.storage.occupied_lines() == 0


class TestErrorPaths:
    def test_read_of_unwritten_line_fails_verification(self, secddr_memory):
        with pytest.raises(IntegrityViolation):
            secddr_memory.read(0x123440)

    def test_invalid_rank_access_rejected(self, secddr_memory, sample_line):
        with pytest.raises(ValueError):
            secddr_memory._ecc_chip_for(7)

    def test_dropped_read_command_times_out(self, secddr_memory, sample_line):
        secddr_memory.write(0x4000, sample_line)

        class DropReads:
            def intercept_read_command(self, command):
                return None

        secddr_memory.attach_adversary(DropReads())
        with pytest.raises(TimeoutError):
            secddr_memory.read(0x4000)
        secddr_memory.detach_adversary()
        assert secddr_memory.stats.dropped_reads == 1


class TestProvisionedMemorySystem:
    """One attested boot per configuration, deep-copied for every caller."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        memory_system._booted_template.cache_clear()
        yield
        memory_system._booted_template.cache_clear()

    def test_copies_are_independent_of_each_other_and_the_template(self, sample_line):
        config = SecDDRConfig()
        template = memory_system._booted_template(config)
        booted = {rank: chip.counter.snapshot() for rank, chip in template.ecc_chips.items()}

        first = provisioned_memory_system(config)
        first.attach_adversary(object())
        first.write(0x4000, sample_line)
        assert first.read(0x4000) == sample_line
        assert {rank: chip.counter.snapshot() for rank, chip in first.ecc_chips.items()} != booted

        second = provisioned_memory_system(config)
        for other in (second, template):
            assert other.storage.occupied_lines() == 0
            assert other.bus.adversary is None
            assert other.bus.writes_observed == other.bus.reads_observed == 0
            assert other.stats.writes == other.stats.reads == 0
            assert {rank: chip.counter.snapshot() for rank, chip in other.ecc_chips.items()} == booted
            assert other.counters_in_sync()
        with pytest.raises(IntegrityViolation):
            second.read(0x4000)
        second.write(0x4000, sample_line)
        assert second.read(0x4000) == sample_line

    def test_ecc_chips_share_the_copys_own_storage(self):
        memory = provisioned_memory_system(SecDDRConfig())
        template = memory_system._booted_template(SecDDRConfig())
        for chip in memory.ecc_chips.values():
            assert chip.storage is memory.storage
        assert memory.storage is not template.storage

    def test_revocation_on_a_copy_stays_in_that_copy(self):
        memory = provisioned_memory_system(SecDDRConfig())
        certificate = memory.identities[0].certificate
        memory.certificate_authority.revoke(certificate.subject)
        assert not memory.certificate_authority.verify(certificate)
        assert provisioned_memory_system(SecDDRConfig()).certificate_authority.verify(certificate)

    def test_attests_once_per_configuration(self, monkeypatch):
        calls = []
        real = memory_system.attest_and_provision

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(memory_system, "attest_and_provision", counting)
        for _ in range(3):
            provisioned_memory_system(SecDDRConfig())
            provisioned_memory_system(SecDDRConfig(ewcrc_enabled=False))
        assert len(calls) == 2
        memory_system._booted_template.cache_clear()
        provisioned_memory_system(SecDDRConfig())
        assert len(calls) == 3

    def test_direct_construction_still_runs_a_fresh_key_exchange(self):
        first = FunctionalMemorySystem(initial_counter=0)
        second = FunctionalMemorySystem(initial_counter=0)
        assert first.attestation.transaction_keys != second.attestation.transaction_keys

    def test_reattest_on_a_copy_leaves_the_template_keys(self, sample_line):
        memory = provisioned_memory_system(SecDDRConfig())
        template = memory_system._booted_template(SecDDRConfig())
        booted_keys = dict(template.attestation.transaction_keys)
        assert memory.attestation.transaction_keys == booted_keys
        memory.reattest(clear_memory=True, initial_counter=0)
        assert memory.attestation.transaction_keys != booted_keys
        assert template.attestation.transaction_keys == booted_keys
        memory.write(0x4000, sample_line)
        assert memory.read(0x4000) == sample_line
