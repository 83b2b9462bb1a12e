import hashlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from saberxbar import pke, xbar
from saberxbar.params import DEFAULT_PARAMS, RingParams
from saberxbar.experiments import run_roundtrips
from saberxbar.ring import Poly, fold_negacyclic, gen_matrix, sample_secret
from saberxbar.polymult import MultAlgorithm, plan_for, schoolbook_mul
from saberxbar.xbar import XbarBackend
from saberxbar.pke import (SoftwareBackend, keygen, encrypt, decrypt, encrypt_arrays,
                           encode_message, encode_messages, decode_message, frame_payload,
                           check_frame, pack_values, unpack_values,
                           pack_public_key, unpack_public_key,
                           pack_secret_key, unpack_secret_key,
                           pack_ciphertext, unpack_ciphertext,
                           PublicKey, SecretKey, Ciphertext, SerializationError)

P = DEFAULT_PARAMS


def _roundtrip(backend=None, seed=0):
    rng = np.random.default_rng(seed)
    pk, sk = keygen(rng.bytes(32), rng.bytes(32), P, backend)
    msg = frame_payload(rng.bytes(P.n // 8 - 4), P)
    ct = encrypt(pk, encode_message(msg, P), rng.bytes(32), P, backend)
    return msg, decode_message(decrypt(sk, ct, P, backend))


@pytest.mark.parametrize("alg", list(MultAlgorithm))
def test_roundtrip_every_software_algorithm(alg):
    for seed in range(5):
        msg, out = _roundtrip(SoftwareBackend(alg), seed)
        assert out == msg and check_frame(out)


def test_backend_mul_raw_is_negacyclic():
    rng = np.random.default_rng(1)
    backend = SoftwareBackend(MultAlgorithm.K4)
    a = Poly(rng.integers(0, P.p, P.n), P.p)
    s = rng.integers(-4, 5, P.n)
    assert np.array_equal(backend.mul_raw(a, s) % P.p,
                          schoolbook_mul(a, Poly(s, P.p)).coeffs)
    assert backend.mult_count == 1


def test_polymult_census_per_operation():
    rng = np.random.default_rng(2)
    backend = SoftwareBackend()
    pk, sk = keygen(rng.bytes(32), rng.bytes(32), P, backend)
    assert backend.mult_count == P.l * P.l  # A^T s
    backend.reset_counters()
    msg = frame_payload(rng.bytes(P.n // 8 - 4), P)
    ct = encrypt(pk, encode_message(msg, P), rng.bytes(32), P, backend)
    assert backend.mult_count == P.l * P.l + P.l  # A s' and b^T s'
    backend.reset_counters()
    decrypt(sk, ct, P, backend)
    assert backend.mult_count == P.l  # b'^T s


@pytest.mark.parametrize("alg", list(MultAlgorithm))
def test_secret_evaluation_census_per_operation(alg):
    # each operation programs its secret once: l polynomials evaluated at
    # every point of the plan, however many products stream against it
    rng = np.random.default_rng(2)
    backend = SoftwareBackend(alg)
    per_op = P.l * plan_for(alg, P).sub_mults
    pk, sk = keygen(rng.bytes(32), rng.bytes(32), P, backend)
    assert (backend.secret_evaluations, backend.mult_count) == (per_op, 9)
    backend.reset_counters()
    msg = frame_payload(rng.bytes(P.n // 8 - 4), P)
    ct = encrypt(pk, encode_message(msg, P), rng.bytes(32), P, backend)
    assert (backend.secret_evaluations, backend.mult_count) == (per_op, 12)
    backend.reset_counters()
    assert decode_message(decrypt(sk, ct, P, backend)) == msg
    assert (backend.secret_evaluations, backend.mult_count) == (per_op, 3)


def test_decryption_reuses_the_key_programmed_by_key_generation(monkeypatch):
    rng = np.random.default_rng(3)
    backend = XbarBackend(P)
    pk, sk = keygen(rng.bytes(32), rng.bytes(32), P, backend)
    msg = frame_payload(rng.bytes(P.n // 8 - 4), P)
    ct = encrypt(pk, encode_message(msg, P), rng.bytes(32), P, backend)
    transforms = []
    original = xbar.program

    def counted(*args, **kwargs):
        transforms.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(xbar, "program", counted)
    assert decode_message(decrypt(sk, ct, P, backend)) == msg
    assert transforms == []


def test_an_edited_secret_key_is_not_served_from_the_slots():
    rng = np.random.default_rng(4)
    backend = XbarBackend(P)
    pk, sk = keygen(rng.bytes(32), rng.bytes(32), P, backend)
    msg = frame_payload(rng.bytes(P.n // 8 - 4), P)
    ct = encrypt(pk, encode_message(msg, P), rng.bytes(32), P, backend)
    bits = backend.cell_bits_written
    sk.s_centered[1] = -sk.s_centered[1]
    want = decrypt(SecretKey(sk.s_centered.copy()), ct, P, SoftwareBackend(MultAlgorithm.SB))
    assert decrypt(sk, ct, P, backend) == want
    assert decode_message(want) != msg
    # the edited polynomial is held in neither slot: it is programmed ad hoc
    assert backend.cell_bits_written == bits + P.n * 4
    sk.s_centered[1] = -sk.s_centered[1]
    assert decode_message(decrypt(sk, ct, P, backend)) == msg


def test_keygen_matches_direct_formula():
    rng = np.random.default_rng(3)
    seed_a, r = rng.bytes(32), rng.bytes(32)
    pk, sk = keygen(seed_a, r, P)
    A = gen_matrix(seed_a, P)
    s = sample_secret(r, P)
    assert np.array_equal(sk.s_centered, s)
    for i in range(P.l):
        acc = sum(fold_negacyclic(np.convolve(A[j, i], s[j]), P.n) for j in range(P.l))
        want = ((acc + 4) % P.q) >> (P.eps_q - P.eps_p)
        assert np.array_equal(pk.b[i], want)


def test_encrypt_rejects_bad_message_domain():
    rng = np.random.default_rng(4)
    pk, _ = keygen(rng.bytes(32), rng.bytes(32), P)
    with pytest.raises(ValueError):
        encrypt(pk, Poly(np.zeros(P.n, dtype=np.int64), 4), rng.bytes(32), P)


def test_message_codec_roundtrip():
    rng = np.random.default_rng(5)
    data = rng.bytes(P.n // 8)
    assert decode_message(encode_message(data, P)) == data
    with pytest.raises(ValueError):
        encode_message(b"short", P)



def test_a_batch_of_messages_encodes_message_by_message():
    rng = np.random.default_rng(6)
    messages = [rng.bytes(P.n // 8) for _ in range(3)]
    got = encode_messages(messages, P)
    assert got.shape == (3, P.n) and got.dtype == np.int64
    for row, data in zip(got, messages):
        assert np.array_equal(row, encode_message(data, P).coeffs)
    assert encode_messages([], P).shape == (0, P.n)
    with pytest.raises(ValueError):
        encode_messages([messages[0], b"short"], P)

def test_frame_crc():
    payload = bytes(range(28))
    frame = frame_payload(payload, P)
    assert len(frame) * 8 == P.n
    assert check_frame(frame)
    corrupted = bytes([frame[0] ^ 1]) + frame[1:]
    assert not check_frame(corrupted)
    with pytest.raises(ValueError):
        frame_payload(b"x" * 27, P)


def test_pack_unpack_values_width10():
    rng = np.random.default_rng(6)
    vals = rng.integers(0, 1 << 10, 64)
    data = pack_values(vals, 10)
    assert len(data) == 64 * 10 // 8
    assert np.array_equal(unpack_values(data, 10, 64), vals)


def _pack_values_bit_by_bit(values, width):
    bits = (np.asarray(values, dtype=np.int64)[:, None] >> np.arange(width)) & 1
    return np.packbits(bits.astype(np.uint8).ravel(), bitorder="little").tobytes()


@settings(max_examples=150, deadline=None)
@given(width=st.integers(1, 25), count=st.integers(1, 800), seed=st.integers(0, 2**32 - 1))
def test_pack_values_matches_bit_by_bit_packing(width, count, seed):
    vals = np.random.default_rng(seed).integers(0, 1 << width, count)
    data = pack_values(vals, width)
    assert data == _pack_values_bit_by_bit(vals, width)
    assert np.array_equal(unpack_values(data, width, count), vals)


def test_key_and_ciphertext_serialization_roundtrip():
    rng = np.random.default_rng(7)
    pk, sk = keygen(rng.bytes(32), rng.bytes(32), P)
    msg = frame_payload(rng.bytes(P.n // 8 - 4), P)
    ct = encrypt(pk, encode_message(msg, P), rng.bytes(32), P)

    pk_bytes = pack_public_key(pk, P)
    assert len(pk_bytes) == 32 + P.l * P.n * P.eps_p // 8
    pk2 = unpack_public_key(pk_bytes, P)
    assert pk2.seed_A == pk.seed_A
    assert np.array_equal(pk2.b, pk.b)

    sk_bytes = pack_secret_key(sk, P)
    assert len(sk_bytes) == P.l * P.n * 4 // 8
    assert np.array_equal(unpack_secret_key(sk_bytes, P).s_centered, sk.s_centered)

    ct_bytes = pack_ciphertext(ct, P)
    assert len(ct_bytes) == (P.n * P.eps_T + P.l * P.n * P.eps_p) // 8 == 1088
    ct2 = unpack_ciphertext(ct_bytes, P)
    assert np.array_equal(ct2.c_m, ct.c_m)
    assert np.array_equal(ct2.b_prime, ct.b_prime)

    out = decode_message(decrypt(unpack_secret_key(sk_bytes, P), ct2, P))
    assert out == msg


def _serialized(backend, seed):
    rng = np.random.default_rng(seed)
    pk, sk = keygen(rng.bytes(32), rng.bytes(32), P, backend)
    msg = frame_payload(rng.bytes(P.n // 8 - 4), P)
    ct = encrypt(pk, encode_message(msg, P), rng.bytes(32), P, backend)
    return pack_public_key(pk, P) + pack_secret_key(sk, P) + pack_ciphertext(ct, P)


def test_serialized_keys_and_ciphertexts_are_pinned():
    # every backend gives the same bytes, and the bytes are the ones this
    # digest was recorded from: a refactor must not move a single bit
    digest = hashlib.sha256()
    for seed in range(4):
        backends = [SoftwareBackend(alg) for alg in MultAlgorithm] + [XbarBackend(P)]
        outputs = {_serialized(backend, seed) for backend in backends}
        assert len(outputs) == 1
        digest.update(outputs.pop())
    assert digest.hexdigest() == (
        "68fea7b0c02798c85230db91c6fe557014e90ca91668cfcc0b5ed5c9b8187233")


# (params, public key bytes, ciphertext bytes) of the three SABER sets
_SABER_SETS = {
    "LightSaber": (RingParams(l=2, T=1 << 3, mu=10), 672, 736),
    "Saber": (P, 992, 1088),
    "FireSaber": (RingParams(l=4, T=1 << 6, mu=6), 1312, 1472),
}


@pytest.mark.parametrize("name", _SABER_SETS)
def test_saber_parameter_sets_roundtrip_on_every_backend(name):
    params, pk_bytes, ct_bytes = _SABER_SETS[name]
    for backend in [SoftwareBackend(alg) for alg in MultAlgorithm] + [XbarBackend(params)]:
        assert run_roundtrips(3, seed=11, backend=backend, params=params) == 0
    rng = np.random.default_rng(11)
    pk, _ = keygen(rng.bytes(32), rng.bytes(32), params)
    msg = encode_message(frame_payload(rng.bytes(params.n // 8 - 4), params), params)
    ct = encrypt(pk, msg, rng.bytes(32), params)
    assert len(pack_public_key(pk, params)) == pk_bytes
    assert len(pack_ciphertext(ct, params)) == ct_bytes


def test_keys_and_ciphertexts_compare_by_value():
    rng = np.random.default_rng(8)
    seed_a, r = rng.bytes(32), rng.bytes(32)
    pk, sk = keygen(seed_a, r, P)
    msg = encode_message(frame_payload(rng.bytes(P.n // 8 - 4), P), P)
    ct = encrypt(pk, msg, rng.bytes(32), P)
    again_pk, again_sk = keygen(seed_a, r, P, XbarBackend(P))
    assert (pk == again_pk) is True and pk == unpack_public_key(pack_public_key(pk, P), P)
    assert (sk == again_sk) is True and sk == SecretKey(sk.s_centered.copy())
    assert (ct == unpack_ciphertext(pack_ciphertext(ct, P), P)) is True
    for values, shape in ((pk.b, (P.l, P.n)), (ct.c_m, (P.n,)), (ct.b_prime, (P.l, P.n))):
        assert values.shape == shape and values.dtype == np.int64
        assert not values.flags.writeable

    def changed(values):
        out = values.copy()
        out[(1,) * out.ndim] ^= 1
        return out
    assert pk != PublicKey(bytes([seed_a[0] ^ 1]) + seed_a[1:], pk.b)
    assert pk != PublicKey(seed_a, changed(pk.b))
    assert sk != SecretKey(changed(sk.s_centered))
    assert sk != SecretKey(sk.s_centered[:-1])
    assert ct != Ciphertext(changed(ct.c_m), ct.b_prime)
    assert ct != Ciphertext(ct.c_m, changed(ct.b_prime))
    assert pk != sk and sk != ct and ct != pk


def test_secret_key_two_complement_covers_negatives():
    sk_bytes = pack_values(np.array([-4, -1, 0, 3] * (P.l * P.n // 4)) & 0xF, 4)
    s = unpack_secret_key(sk_bytes, P).s_centered
    assert list(s.ravel()[:4]) == [-4, -1, 0, 3]


PK_BYTES = 32 + P.l * P.n * P.eps_p // 8
SK_BYTES = P.l * P.n * 4 // 8
CT_BYTES = (P.n * P.eps_T + P.l * P.n * P.eps_p) // 8
FORMATS = [(PK_BYTES, pack_public_key, unpack_public_key),
           (SK_BYTES, pack_secret_key, unpack_secret_key),
           (CT_BYTES, pack_ciphertext, unpack_ciphertext)]


def test_serialized_sizes():
    assert (PK_BYTES, SK_BYTES, CT_BYTES) == (992, 384, 1088)


@settings(max_examples=40, deadline=None)
@given(fmt=st.sampled_from(FORMATS), data=st.data())
def test_every_byte_string_of_the_right_length_roundtrips(fmt, data):
    # every field packs whole bit patterns, so parsing is a bijection
    size, pack, unpack = fmt
    raw = data.draw(st.binary(min_size=size, max_size=size))
    assert pack(unpack(raw, P), P) == raw


@settings(max_examples=60, deadline=None)
@given(fmt=st.sampled_from(FORMATS), size=st.integers(0, 1200))
def test_wrong_lengths_raise_serialization_error(fmt, size):
    want, _, unpack = fmt
    if size == want:
        return
    with pytest.raises(SerializationError):
        unpack(bytes(size), P)


def test_long_and_short_ciphertexts_and_keys_are_rejected():
    for bad in (bytes(CT_BYTES + 1), bytes(CT_BYTES - 1)):
        with pytest.raises(SerializationError):
            unpack_ciphertext(bad, P)
    with pytest.raises(SerializationError):
        unpack_public_key(bytes(PK_BYTES - 1), P)
    assert issubclass(SerializationError, ValueError)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), low=st.integers(-8, 7), high=st.integers(-8, 7))
def test_secret_keys_in_range_roundtrip(seed, low, high):
    low, high = min(low, high), max(low, high)
    s = np.random.default_rng(seed).integers(low, high + 1, (P.l, P.n))
    packed = pack_secret_key(SecretKey(s), P)
    assert np.array_equal(unpack_secret_key(packed, P).s_centered, s)


@pytest.mark.parametrize("value", [8, 9, -9, 100])
def test_secret_key_out_of_range_is_rejected(value):
    s = np.zeros((P.l, P.n), dtype=np.int64)
    s[1, 7] = value
    with pytest.raises(SerializationError):
        pack_secret_key(SecretKey(s), P)


def _with_last(values, value):
    edited = values.copy()
    edited.reshape(-1)[-1] = value
    return edited


@pytest.mark.parametrize("value", [-1, 0, "top", "top + 1", 1 << 20])
def test_public_keys_and_ciphertexts_pack_only_values_in_range(value):
    # a coefficient outside [0, p) or [0, T) would pack its low bits into
    # the bytes of a different key or ciphertext
    rng = np.random.default_rng(5)
    pk, _ = keygen(rng.bytes(32), rng.bytes(32), P)
    ct = encrypt(pk, encode_message(rng.bytes(P.n // 8), P), rng.bytes(32), P)
    edits = [(pack_public_key, unpack_public_key, P.p,
              lambda v: PublicKey(pk.seed_A, _with_last(pk.b, v))),
             (pack_ciphertext, unpack_ciphertext, P.T,
              lambda v: Ciphertext(_with_last(ct.c_m, v), ct.b_prime)),
             (pack_ciphertext, unpack_ciphertext, P.p,
              lambda v: Ciphertext(ct.c_m, _with_last(ct.b_prime, v)))]
    for pack, unpack, modulus, edit in edits:
        v = {"top": modulus - 1, "top + 1": modulus}.get(value, value)
        if 0 <= v < modulus:
            assert unpack(pack(edit(v), P), P) == edit(v)
        else:
            with pytest.raises(SerializationError):
                pack(edit(v), P)


# ---------------------------------------------------------------------------
# the rows of a repeated public key, programmed and held per thread

def _backend_makers(params):
    return ([lambda alg=alg: SoftwareBackend(alg) for alg in MultAlgorithm]
            + [lambda: XbarBackend(params)])


def _fresh_bytes(pk, msg, r, params, make):
    """The ciphertext bytes of the coefficient path on a fresh backend."""
    c_m, b_prime = encrypt_arrays(gen_matrix(pk.seed_A, params), pk.b, msg.coeffs,
                                  sample_secret(r, params), params, make())
    return pack_ciphertext(Ciphertext(c_m, b_prime), params)


@pytest.mark.parametrize("name", _SABER_SETS)
def test_repeated_encryptions_give_the_bytes_of_a_fresh_backend(name):
    # five encryptions in a row to each of two keys, then the keys
    # interleaved, then a key whose b the caller edits in place between
    # encryptions: every ciphertext is byte for byte the coefficient path's
    # on a fresh backend, and the rows are held exactly when the key
    # repeated unchanged
    params = _SABER_SETS[name][0]
    rng = np.random.default_rng(61)
    for make in _backend_makers(params):
        backend = make()
        keys = [keygen(rng.bytes(32), rng.bytes(32), params, backend)[0] for _ in range(2)]
        b = np.array(keys[0].b)  # writable, as a caller's own array may be
        keys.append(PublicKey(keys[0].seed_A, b))
        previous = None
        for which, edit in ([(0, False)] * 5 + [(1, False)] * 5 + [(0, False), (1, False)]
                            + [(2, False), (2, False), (2, True), (2, False), (2, True)]):
            if edit:
                i, j = rng.integers(params.l), rng.integers(params.n)
                b[i, j] = (b[i, j] + 1) % params.p
            pk = keys[which]
            msg, r = encode_message(rng.bytes(params.n // 8), params), rng.bytes(32)
            got = pack_ciphertext(encrypt(pk, msg, r, params, backend), params)
            assert got == _fresh_bytes(pk, msg, r, params, make)
            value = (pk.seed_A, pk.b.tobytes())
            assert (pke._HELD_ROWS.rows is not None) == (value == previous)
            previous = value


@pytest.mark.parametrize("make", _backend_makers(P))
def test_census_holds_on_every_repeated_encryption(make):
    # criterion 10 on each of five encryptions in a row to one key, held
    # rows or not: 12 PolyMults, the secret evaluated once, and on the
    # crossbar 3072 work-slot cell bits and no boot bits
    rng = np.random.default_rng(73)
    backend = make()
    pk, sk = keygen(rng.bytes(32), rng.bytes(32), P, backend)
    for _ in range(5):
        backend.reset_counters()
        msg = frame_payload(rng.bytes(P.n // 8 - 4), P)
        ct = encrypt(pk, encode_message(msg, P), rng.bytes(32), P, backend)
        assert backend.mult_count == 12
        if isinstance(backend, SoftwareBackend):
            assert backend.secret_evaluations == P.l * plan_for(backend.algorithm, P).sub_mults
        else:
            assert (backend.cell_bits_written, backend.boot_cell_bits) == (3072, 0)
        assert decode_message(decrypt(sk, ct, P, backend)) == msg
    assert pke._HELD_ROWS.rows is not None


def test_threads_alternating_keys_hold_their_own_rows():
    # two threads encrypt to two keys in runs of two, out of phase, while
    # switching often: each gets the ciphertexts of a sequential run, and
    # each holds one entry, its own last key's
    rng = np.random.default_rng(79)
    keys = [keygen(rng.bytes(32), rng.bytes(32), P)[0] for _ in range(2)]
    plans = [[0, 0, 1, 1] * 4, [1, 1, 0, 0] * 4]
    inputs = [[(encode_message(rng.bytes(P.n // 8), P), rng.bytes(32)) for _ in plan]
              for plan in plans]
    want = [[_fresh_bytes(keys[k], msg, r, P, SoftwareBackend)
             for k, (msg, r) in zip(plan, ins)] for plan, ins in zip(plans, inputs)]
    got, held = [None, None], [None, None]

    def work(t):
        backend = SoftwareBackend()
        got[t] = [pack_ciphertext(encrypt(keys[k], msg, r, P, backend), P)
                  for k, (msg, r) in zip(plans[t], inputs[t])]
        held[t] = pke._HELD_ROWS.key[0]
    threads = [threading.Thread(target=work, args=(t,)) for t in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    assert held == [keys[plans[t][-1]].seed_A for t in range(2)]


_MALFORMED_KEYS = {
    "b out of range": lambda pk: PublicKey(pk.seed_A, pk.b + 5000),
    "b negative": lambda pk: PublicKey(pk.seed_A, pk.b - P.p),
    "b of the wrong shape": lambda pk: PublicKey(pk.seed_A, pk.b[:2]),
    "b of floats": lambda pk: PublicKey(pk.seed_A, pk.b.astype(np.float64)),
    "short seed_A": lambda pk: PublicKey(pk.seed_A[:31], pk.b),
    "long seed_A": lambda pk: PublicKey(pk.seed_A + b"\0", pk.b),
}


@pytest.mark.parametrize("make", _backend_makers(P))
@pytest.mark.parametrize("what", list(_MALFORMED_KEYS))
def test_encrypt_refuses_a_malformed_public_key(make, what):
    # whether its key is fresh or follows a held one, a key that would not
    # serialize is refused with a typed error, and the held key stays
    rng = np.random.default_rng(83)
    backend = make()
    pk, sk = keygen(rng.bytes(32), rng.bytes(32), P, backend)
    msg = encode_message(rng.bytes(P.n // 8), P)
    bad = _MALFORMED_KEYS[what](pk)
    with pytest.raises(SerializationError):
        encrypt(bad, msg, rng.bytes(32), P, backend)
    for _ in range(2):
        encrypt(pk, msg, rng.bytes(32), P, backend)
    with pytest.raises(SerializationError):
        encrypt(bad, msg, rng.bytes(32), P, backend)
    assert pke._HELD_ROWS.key[0] == pk.seed_A and pke._HELD_ROWS.b == pk.b.tobytes()
    ct = encrypt(pk, msg, rng.bytes(32), P, backend)
    assert decrypt(sk, ct, P, backend) == msg


def test_a_public_key_is_checked_only_when_it_is_not_the_one_held(monkeypatch):
    rng = np.random.default_rng(89)
    keys = [keygen(rng.bytes(32), rng.bytes(32), P)[0] for _ in range(2)]
    checked = []
    check = pke._check_public_key
    monkeypatch.setattr(pke, "_check_public_key",
                        lambda pk, params: checked.append(pk) or check(pk, params))
    msg = encode_message(rng.bytes(P.n // 8), P)
    for which in (0, 0, 0, 1, 1, 0):
        encrypt(keys[which], msg, rng.bytes(32), P)
    assert checked == [keys[0], keys[1], keys[0]]
