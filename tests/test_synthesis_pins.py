"""Pinned synthesized tables and sampled verification outcomes.

`TABLES` holds the sha256 of the JSON list of `synthesize(f).table` for
the six ECA sliders, the bundled `identity`, `shift` and `ca102`, and the
24 affine q=3 sliders (a*x0 + b*x1 + c) mod 3 of width 2 and anchor 0.
`SAMPLED` holds, for each bijective q=2 bundled block rule and each rule
synthesized from `identity`, `shift` and `ca102`, against each q=2 bundled
rule and seeds 0-3 at 60 samples, the sampled check's `ok`, `samples`, the
sha256 of the counterexample's JSON (None when there is none) and the
slider/sweeper agreement.  Both tables were generated once from the
tuple-pair construction and the two-loop sampling check, which live on
as `oracles.pair_synthesize` and `oracles.two_pass_verify`; any change to
the table numbering, the draw order or either early stop fails here.
"""

import hashlib
import json
import random

import pytest

from casweep.blockrule import BUILTIN_BLOCK_RULES, builtin_block_rule
from casweep.ca import BUILTIN_RULES, LocalRule, builtin_rule
from casweep.core import ep_to_json
from casweep.stairs import slider_exists
from casweep.synthesis import synthesize, verify_slider
from oracles import pair_synthesize, two_pass_verify


def eca(n: int) -> LocalRule:
    return LocalRule(2, -1, 3, tuple((n >> k) & 1 for k in range(8)))


def affine(a: int, b: int, c: int) -> LocalRule:
    return LocalRule(3, 0, 2, tuple((a * x0 + b * x1 + c) % 3
                                    for x0 in range(3) for x1 in range(3)))


def pinned_rule(name: str) -> LocalRule:
    if name.startswith("eca"):
        return eca(int(name[3:]))
    if name.startswith("affine"):
        return affine(*map(int, name[6:]))
    return builtin_rule(name)


def pinned_block_rule(name: str):
    if name.startswith("synth_"):
        return synthesize(builtin_rule(name[6:]))
    return builtin_block_rule(name)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def sampled_outcome(result):
    cx = result.counterexample
    if cx is not None:
        x, i, y, z = cx
        cx = digest([ep_to_json(x), i, ep_to_json(y), ep_to_json(z)])
    return result.ok, result.samples, cx, result.sweeper_agreement


# (rule, sha256 of the JSON list of the synthesized table)
TABLES = [
    ("eca51",
     "321ef606aa7a5143d3cb0b2dadb0dd6f2c3b0f685b04fce69cd9f2fbce214cfe"),
    ("eca85",
     "63fe98c099dedb1780a8388253e431d3bb551dc634c71ab448ad1f9c95cff433"),
    ("eca102",
     "02e3206a82a6eee79a7fafebeb8e1058597b734e87cbc05845debdaca7c6a93b"),
    ("eca153",
     "fe38d746d744d556a5bf3f5b0e0cd0cc700157573fc902cfece72534b8031823"),
    ("eca170",
     "afae44f6597287ac9d74754a72318077b7efa0d548a8ff0d9082541565512b70"),
    ("eca204",
     "c65d080c4b3df0e2d0b3b3cf0ac866bc74172aeb126b3314867592add47f76d6"),
    ("identity",
     "c65d080c4b3df0e2d0b3b3cf0ac866bc74172aeb126b3314867592add47f76d6"),
    ("shift",
     "afae44f6597287ac9d74754a72318077b7efa0d548a8ff0d9082541565512b70"),
    ("ca102",
     "02e3206a82a6eee79a7fafebeb8e1058597b734e87cbc05845debdaca7c6a93b"),
    ("affine010",
     "fc497b066d97294f66542a9a3390788902bd094b5acb971c0fec217ee21bbae1"),
    ("affine011",
     "eaf910cd5933a330dfd3e094e7b09edeb2b6b863ea317abbc895a203591f8e65"),
    ("affine012",
     "75f397a42a5945ee92a380707cd3a52703038122bb7ce76fae08ec3c1dd8e544"),
    ("affine020",
     "6c57ee5a4dc75f09061947789d88a52343d2e6b775b79bb6821fe6240f6e2b55"),
    ("affine021",
     "35923a111964a316bd4d7fb3a90351f0d300971b3f473f2ddf76e1f933fe080c"),
    ("affine022",
     "2abc7bdd30ed8964254b3839c6ee01d3954ff0b573d3d5ddf0538a3d0972edb8"),
    ("affine100",
     "5313df3d78c9b37515087286bf94c217f6207854e7763717100caa2e3db98c5e"),
    ("affine101",
     "eb14f27139d8d0b078fe6d3681fa21127852e54bab0d62f3580e5844df6a3450"),
    ("affine102",
     "8b9a8294cf7cd76b52a58551f098492a01642c9c3249ebd4caf56bf4b1273b27"),
    ("affine110",
     "452eb25b5576a92787099e681ccb1a76e4538e8808974a4d955088b1a4383492"),
    ("affine111",
     "87bf92aaa03bc9ef5a446eb6c18b35522c00c57e94f28735792e63e3918ce81c"),
    ("affine112",
     "4642eb0ed4a6d4836fe037fb546f9d5e7486d84bb7cdee031d5e02af5c344276"),
    ("affine120",
     "bdd669b98fa316817de6ac598b89e4f8747a3fbf81a44bc0748c142cd135ce30"),
    ("affine121",
     "f23e7e90cd94914b54f0235ecbdf2f3dc353ab1a1f8f03ac51cb329ff2910015"),
    ("affine122",
     "4478066e1495107c5801bf5ed2be47a552db5603d7132a0daed8d637c8de7802"),
    ("affine200",
     "d5b248a8b08c844be2887b40c0b7e01a99aba6cfb4aab4c4c520ca13ce19bc37"),
    ("affine201",
     "a02b1374753652e88db2a28c94bb0a078a1bf11c7d7da8d7acddd435b7eacffb"),
    ("affine202",
     "0b2226b702f3f8e28d73011fb3ae2a511b82186fb0f7070d1b95c9853ce02a7d"),
    ("affine210",
     "eb8e76464bf175ae7973c4b4ab8234d365a817a6c5426c25eaf5293ee61f879f"),
    ("affine211",
     "c4b4ba510367c62975e27cc717bab68d0af5f44a1433373a263de1f270742087"),
    ("affine212",
     "9ddc9f4f02143be3823fb0eb16e5ef6aeb78d58c3b1743c47a4c65651c584cd9"),
    ("affine220",
     "cbc787d1d620cf67117c04e47c8952c2f4428576b69271ee9e00728863161547"),
    ("affine221",
     "a6bedd85afe31560b7bba39574c47fe0ff92627f6016ce88af932cc9e204be1a"),
    ("affine222",
     "dd6fd36254f1ef27c210aec601e39f381b9771de248011f42227ef9644d94f60"),
]

# (block rule, CA, seed, ok, samples, counterexample sha256, agreement)
SAMPLED = [
    ("swap", "identity", 0, False, 1,
     "fe8e98a0479b9d5ce655a6074ea7e0962ef03713ed3c017caa41766d8a7b214c", True),
    ("swap", "identity", 1, False, 1,
     "985a687c0787e42ac12b8cedd9c15dadb7114f020ac50349e31e0d1eec255792", True),
    ("swap", "identity", 2, False, 1,
     "1171829a39e0356270e5dea4f16738d1133d3865d8849b8593d6033ca823d747", False),
    ("swap", "identity", 3, False, 1,
     "68df2212df3637212ce7978b25c27364d6ab047d0289bdc6514b4f6ed44d002a", True),
    ("swap", "shift", 0, True, 60, None, True),
    ("swap", "shift", 1, True, 60, None, True),
    ("swap", "shift", 2, True, 60, None, True),
    ("swap", "shift", 3, True, 60, None, True),
    ("swap", "shift_inv", 0, False, 1,
     "fe8e98a0479b9d5ce655a6074ea7e0962ef03713ed3c017caa41766d8a7b214c", False),
    ("swap", "shift_inv", 1, False, 1,
     "985a687c0787e42ac12b8cedd9c15dadb7114f020ac50349e31e0d1eec255792", True),
    ("swap", "shift_inv", 2, False, 1,
     "1171829a39e0356270e5dea4f16738d1133d3865d8849b8593d6033ca823d747", False),
    ("swap", "shift_inv", 3, False, 1,
     "68df2212df3637212ce7978b25c27364d6ab047d0289bdc6514b4f6ed44d002a", False),
    ("swap", "ca102", 0, False, 1,
     "fe8e98a0479b9d5ce655a6074ea7e0962ef03713ed3c017caa41766d8a7b214c", True),
    ("swap", "ca102", 1, False, 1,
     "985a687c0787e42ac12b8cedd9c15dadb7114f020ac50349e31e0d1eec255792", True),
    ("swap", "ca102", 2, False, 1,
     "1171829a39e0356270e5dea4f16738d1133d3865d8849b8593d6033ca823d747", False),
    ("swap", "ca102", 3, False, 1,
     "68df2212df3637212ce7978b25c27364d6ab047d0289bdc6514b4f6ed44d002a", True),
    ("swap", "xor_left", 0, False, 1,
     "fe8e98a0479b9d5ce655a6074ea7e0962ef03713ed3c017caa41766d8a7b214c", False),
    ("swap", "xor_left", 1, False, 1,
     "985a687c0787e42ac12b8cedd9c15dadb7114f020ac50349e31e0d1eec255792", True),
    ("swap", "xor_left", 2, False, 1,
     "1171829a39e0356270e5dea4f16738d1133d3865d8849b8593d6033ca823d747", False),
    ("swap", "xor_left", 3, False, 1,
     "68df2212df3637212ce7978b25c27364d6ab047d0289bdc6514b4f6ed44d002a", True),
    ("swap", "and_rule", 0, False, 1,
     "fe8e98a0479b9d5ce655a6074ea7e0962ef03713ed3c017caa41766d8a7b214c", True),
    ("swap", "and_rule", 1, False, 1,
     "985a687c0787e42ac12b8cedd9c15dadb7114f020ac50349e31e0d1eec255792", True),
    ("swap", "and_rule", 2, False, 1,
     "1171829a39e0356270e5dea4f16738d1133d3865d8849b8593d6033ca823d747", False),
    ("swap", "and_rule", 3, False, 1,
     "68df2212df3637212ce7978b25c27364d6ab047d0289bdc6514b4f6ed44d002a", True),
    ("xor_block", "identity", 0, False, 1,
     "9eb40b20dd213524f77c402a983f980391869075829db76e44ff28cbe22ca053", True),
    ("xor_block", "identity", 1, False, 1,
     "2889b7fdfb00b6488b8c35958478e097b0be9ccf21caebf0fb257dc38b59ebb9", True),
    ("xor_block", "identity", 2, False, 1,
     "11d3b3b770a0c1adbd335d635405b8879a66da192798b1db44e84d0062f1a7d5", True),
    ("xor_block", "identity", 3, False, 1,
     "fc8a6d07d2e12c25c92d7c14d3f490a0f4800265e7c54c6f0984ffb8ada4bfc4", True),
    ("xor_block", "shift", 0, False, 1,
     "9eb40b20dd213524f77c402a983f980391869075829db76e44ff28cbe22ca053", True),
    ("xor_block", "shift", 1, False, 1,
     "2889b7fdfb00b6488b8c35958478e097b0be9ccf21caebf0fb257dc38b59ebb9", True),
    ("xor_block", "shift", 2, False, 1,
     "11d3b3b770a0c1adbd335d635405b8879a66da192798b1db44e84d0062f1a7d5", True),
    ("xor_block", "shift", 3, False, 1,
     "fc8a6d07d2e12c25c92d7c14d3f490a0f4800265e7c54c6f0984ffb8ada4bfc4", True),
    ("xor_block", "shift_inv", 0, False, 1,
     "9eb40b20dd213524f77c402a983f980391869075829db76e44ff28cbe22ca053", True),
    ("xor_block", "shift_inv", 1, False, 1,
     "2889b7fdfb00b6488b8c35958478e097b0be9ccf21caebf0fb257dc38b59ebb9", True),
    ("xor_block", "shift_inv", 2, False, 1,
     "11d3b3b770a0c1adbd335d635405b8879a66da192798b1db44e84d0062f1a7d5", True),
    ("xor_block", "shift_inv", 3, False, 1,
     "fc8a6d07d2e12c25c92d7c14d3f490a0f4800265e7c54c6f0984ffb8ada4bfc4", True),
    ("xor_block", "ca102", 0, True, 60, None, True),
    ("xor_block", "ca102", 1, True, 60, None, True),
    ("xor_block", "ca102", 2, True, 60, None, True),
    ("xor_block", "ca102", 3, True, 60, None, True),
    ("xor_block", "xor_left", 0, False, 1,
     "9eb40b20dd213524f77c402a983f980391869075829db76e44ff28cbe22ca053", False),
    ("xor_block", "xor_left", 1, False, 1,
     "2889b7fdfb00b6488b8c35958478e097b0be9ccf21caebf0fb257dc38b59ebb9", False),
    ("xor_block", "xor_left", 2, False, 2,
     "dff3fe7163fd28e5a7abbed2ebefc376f62f4d7221f739102a69421a62ac90d1", False),
    ("xor_block", "xor_left", 3, False, 1,
     "fc8a6d07d2e12c25c92d7c14d3f490a0f4800265e7c54c6f0984ffb8ada4bfc4", False),
    ("xor_block", "and_rule", 0, False, 1,
     "9eb40b20dd213524f77c402a983f980391869075829db76e44ff28cbe22ca053", True),
    ("xor_block", "and_rule", 1, False, 1,
     "2889b7fdfb00b6488b8c35958478e097b0be9ccf21caebf0fb257dc38b59ebb9", True),
    ("xor_block", "and_rule", 2, False, 1,
     "11d3b3b770a0c1adbd335d635405b8879a66da192798b1db44e84d0062f1a7d5", True),
    ("xor_block", "and_rule", 3, False, 1,
     "fc8a6d07d2e12c25c92d7c14d3f490a0f4800265e7c54c6f0984ffb8ada4bfc4", True),
    ("identity_block", "identity", 0, True, 60, None, True),
    ("identity_block", "identity", 1, True, 60, None, True),
    ("identity_block", "identity", 2, True, 60, None, True),
    ("identity_block", "identity", 3, True, 60, None, True),
    ("identity_block", "shift", 0, False, 1,
     "cf55aedf25cb0b0f3a82dd47e4cda4abf7686571c3d2a0760dba2baa3aaa024f", True),
    ("identity_block", "shift", 1, False, 1,
     "039d7ae7a991e6e5a706a555d9771bec340159359c3c399670c26db4652efecf", True),
    ("identity_block", "shift", 2, False, 1,
     "bbe65e4f40e0826b4346e74a3113150cb504d55b160746628bac51486f77c4b1", True),
    ("identity_block", "shift", 3, False, 1,
     "e871ec5a400b06547a404537327b8e2057b7c4fead23bb5144d5ce3691d6f78e", True),
    ("identity_block", "shift_inv", 0, False, 1,
     "cf55aedf25cb0b0f3a82dd47e4cda4abf7686571c3d2a0760dba2baa3aaa024f", True),
    ("identity_block", "shift_inv", 1, False, 1,
     "039d7ae7a991e6e5a706a555d9771bec340159359c3c399670c26db4652efecf", True),
    ("identity_block", "shift_inv", 2, False, 1,
     "bbe65e4f40e0826b4346e74a3113150cb504d55b160746628bac51486f77c4b1", True),
    ("identity_block", "shift_inv", 3, False, 1,
     "e871ec5a400b06547a404537327b8e2057b7c4fead23bb5144d5ce3691d6f78e", True),
    ("identity_block", "ca102", 0, False, 1,
     "cf55aedf25cb0b0f3a82dd47e4cda4abf7686571c3d2a0760dba2baa3aaa024f", True),
    ("identity_block", "ca102", 1, False, 1,
     "039d7ae7a991e6e5a706a555d9771bec340159359c3c399670c26db4652efecf", True),
    ("identity_block", "ca102", 2, False, 1,
     "bbe65e4f40e0826b4346e74a3113150cb504d55b160746628bac51486f77c4b1", True),
    ("identity_block", "ca102", 3, False, 1,
     "e871ec5a400b06547a404537327b8e2057b7c4fead23bb5144d5ce3691d6f78e", True),
    ("identity_block", "xor_left", 0, False, 1,
     "cf55aedf25cb0b0f3a82dd47e4cda4abf7686571c3d2a0760dba2baa3aaa024f", True),
    ("identity_block", "xor_left", 1, False, 1,
     "039d7ae7a991e6e5a706a555d9771bec340159359c3c399670c26db4652efecf", True),
    ("identity_block", "xor_left", 2, False, 1,
     "bbe65e4f40e0826b4346e74a3113150cb504d55b160746628bac51486f77c4b1", True),
    ("identity_block", "xor_left", 3, False, 1,
     "e871ec5a400b06547a404537327b8e2057b7c4fead23bb5144d5ce3691d6f78e", True),
    ("identity_block", "and_rule", 0, False, 1,
     "cf55aedf25cb0b0f3a82dd47e4cda4abf7686571c3d2a0760dba2baa3aaa024f", True),
    ("identity_block", "and_rule", 1, False, 3,
     "7631dee9cdff4ac42c3fd537472f39d9970f669ba8a19dc371811c4b0985176b", True),
    ("identity_block", "and_rule", 2, False, 2,
     "d486b8763a2e3ac6f6bd70505ee3a44eab38423c73c86b1c3533605b85e1c277", True),
    ("identity_block", "and_rule", 3, False, 1,
     "e871ec5a400b06547a404537327b8e2057b7c4fead23bb5144d5ce3691d6f78e", True),
    ("synth_identity", "identity", 0, True, 60, None, True),
    ("synth_identity", "identity", 1, True, 60, None, True),
    ("synth_identity", "identity", 2, True, 60, None, True),
    ("synth_identity", "identity", 3, True, 60, None, True),
    ("synth_identity", "shift", 0, False, 1,
     "533cc2687310614bd922228f46a8c06e6d4aa85266af33bf21592f3056d2c574", True),
    ("synth_identity", "shift", 1, False, 1,
     "422a4c6c2e45c94c4da065ca1188b5afe2db0649a58ddcbb6b0d473265132a07", True),
    ("synth_identity", "shift", 2, False, 1,
     "bbe65e4f40e0826b4346e74a3113150cb504d55b160746628bac51486f77c4b1", True),
    ("synth_identity", "shift", 3, False, 1,
     "1dee7f50b0d19da389df3f7c7760a29e0ee81c7d9f0148cff4bf6ad510c4a7e8", True),
    ("synth_identity", "shift_inv", 0, False, 1,
     "533cc2687310614bd922228f46a8c06e6d4aa85266af33bf21592f3056d2c574", True),
    ("synth_identity", "shift_inv", 1, False, 1,
     "422a4c6c2e45c94c4da065ca1188b5afe2db0649a58ddcbb6b0d473265132a07", True),
    ("synth_identity", "shift_inv", 2, False, 1,
     "bbe65e4f40e0826b4346e74a3113150cb504d55b160746628bac51486f77c4b1", True),
    ("synth_identity", "shift_inv", 3, False, 1,
     "1dee7f50b0d19da389df3f7c7760a29e0ee81c7d9f0148cff4bf6ad510c4a7e8", True),
    ("synth_identity", "ca102", 0, False, 1,
     "533cc2687310614bd922228f46a8c06e6d4aa85266af33bf21592f3056d2c574", True),
    ("synth_identity", "ca102", 1, False, 1,
     "422a4c6c2e45c94c4da065ca1188b5afe2db0649a58ddcbb6b0d473265132a07", True),
    ("synth_identity", "ca102", 2, False, 1,
     "bbe65e4f40e0826b4346e74a3113150cb504d55b160746628bac51486f77c4b1", True),
    ("synth_identity", "ca102", 3, False, 1,
     "1dee7f50b0d19da389df3f7c7760a29e0ee81c7d9f0148cff4bf6ad510c4a7e8", True),
    ("synth_identity", "xor_left", 0, False, 1,
     "533cc2687310614bd922228f46a8c06e6d4aa85266af33bf21592f3056d2c574", True),
    ("synth_identity", "xor_left", 1, False, 1,
     "422a4c6c2e45c94c4da065ca1188b5afe2db0649a58ddcbb6b0d473265132a07", True),
    ("synth_identity", "xor_left", 2, False, 1,
     "bbe65e4f40e0826b4346e74a3113150cb504d55b160746628bac51486f77c4b1", True),
    ("synth_identity", "xor_left", 3, False, 1,
     "1dee7f50b0d19da389df3f7c7760a29e0ee81c7d9f0148cff4bf6ad510c4a7e8", True),
    ("synth_identity", "and_rule", 0, False, 1,
     "533cc2687310614bd922228f46a8c06e6d4aa85266af33bf21592f3056d2c574", True),
    ("synth_identity", "and_rule", 1, False, 1,
     "422a4c6c2e45c94c4da065ca1188b5afe2db0649a58ddcbb6b0d473265132a07", False),
    ("synth_identity", "and_rule", 2, False, 2,
     "eb7f099b0b245031723ea3969e0e1a95e3671c19c65bce5bb0f34a2b917f9f3e", False),
    ("synth_identity", "and_rule", 3, False, 1,
     "1dee7f50b0d19da389df3f7c7760a29e0ee81c7d9f0148cff4bf6ad510c4a7e8", False),
    ("synth_shift", "identity", 0, False, 1,
     "98b9df82edfddd22e6fff8b169b9e37ce4961e511d860d499803fcfd88603c88", False),
    ("synth_shift", "identity", 1, False, 1,
     "347b0d4ed97e9b9feae15f32922e98481c223ea9e3bc96198a64100dd9849912", False),
    ("synth_shift", "identity", 2, False, 1,
     "1171829a39e0356270e5dea4f16738d1133d3865d8849b8593d6033ca823d747", False),
    ("synth_shift", "identity", 3, False, 1,
     "24bb6b29ffc915d2e6c238f3bbc5afd043e3d99003283d1c12f1d36646fa14d5", True),
    ("synth_shift", "shift", 0, True, 60, None, True),
    ("synth_shift", "shift", 1, True, 60, None, True),
    ("synth_shift", "shift", 2, True, 60, None, True),
    ("synth_shift", "shift", 3, True, 60, None, True),
    ("synth_shift", "shift_inv", 0, False, 1,
     "98b9df82edfddd22e6fff8b169b9e37ce4961e511d860d499803fcfd88603c88", False),
    ("synth_shift", "shift_inv", 1, False, 1,
     "347b0d4ed97e9b9feae15f32922e98481c223ea9e3bc96198a64100dd9849912", False),
    ("synth_shift", "shift_inv", 2, False, 1,
     "1171829a39e0356270e5dea4f16738d1133d3865d8849b8593d6033ca823d747", False),
    ("synth_shift", "shift_inv", 3, False, 1,
     "24bb6b29ffc915d2e6c238f3bbc5afd043e3d99003283d1c12f1d36646fa14d5", False),
    ("synth_shift", "ca102", 0, False, 1,
     "98b9df82edfddd22e6fff8b169b9e37ce4961e511d860d499803fcfd88603c88", True),
    ("synth_shift", "ca102", 1, False, 1,
     "347b0d4ed97e9b9feae15f32922e98481c223ea9e3bc96198a64100dd9849912", False),
    ("synth_shift", "ca102", 2, False, 1,
     "1171829a39e0356270e5dea4f16738d1133d3865d8849b8593d6033ca823d747", True),
    ("synth_shift", "ca102", 3, False, 1,
     "24bb6b29ffc915d2e6c238f3bbc5afd043e3d99003283d1c12f1d36646fa14d5", True),
    ("synth_shift", "xor_left", 0, False, 1,
     "98b9df82edfddd22e6fff8b169b9e37ce4961e511d860d499803fcfd88603c88", True),
    ("synth_shift", "xor_left", 1, False, 1,
     "347b0d4ed97e9b9feae15f32922e98481c223ea9e3bc96198a64100dd9849912", False),
    ("synth_shift", "xor_left", 2, False, 1,
     "1171829a39e0356270e5dea4f16738d1133d3865d8849b8593d6033ca823d747", True),
    ("synth_shift", "xor_left", 3, False, 1,
     "24bb6b29ffc915d2e6c238f3bbc5afd043e3d99003283d1c12f1d36646fa14d5", True),
    ("synth_shift", "and_rule", 0, False, 1,
     "98b9df82edfddd22e6fff8b169b9e37ce4961e511d860d499803fcfd88603c88", False),
    ("synth_shift", "and_rule", 1, False, 1,
     "347b0d4ed97e9b9feae15f32922e98481c223ea9e3bc96198a64100dd9849912", False),
    ("synth_shift", "and_rule", 2, False, 1,
     "1171829a39e0356270e5dea4f16738d1133d3865d8849b8593d6033ca823d747", False),
    ("synth_shift", "and_rule", 3, False, 1,
     "24bb6b29ffc915d2e6c238f3bbc5afd043e3d99003283d1c12f1d36646fa14d5", False),
    ("synth_ca102", "identity", 0, False, 1,
     "a9576fc6c32e665a0c4da6f4c558f56b28f5b6ba099e1d3d80962b5f6726d023", True),
    ("synth_ca102", "identity", 1, False, 1,
     "6d4f4211d08f9178631274f96b038973945ccb06b37da15abdbddd4c4f6900b0", True),
    ("synth_ca102", "identity", 2, False, 1,
     "9f442ae823404ff7451324f2250fc5a082e83f24cf497d996734d4902c4edfa8", True),
    ("synth_ca102", "identity", 3, False, 1,
     "e09c1fa8e9bd7cb773aa6745b584d6def38c21c29a93e21ed0ec8eafbfbcc561", True),
    ("synth_ca102", "shift", 0, False, 1,
     "a9576fc6c32e665a0c4da6f4c558f56b28f5b6ba099e1d3d80962b5f6726d023", True),
    ("synth_ca102", "shift", 1, False, 1,
     "6d4f4211d08f9178631274f96b038973945ccb06b37da15abdbddd4c4f6900b0", True),
    ("synth_ca102", "shift", 2, False, 1,
     "9f442ae823404ff7451324f2250fc5a082e83f24cf497d996734d4902c4edfa8", True),
    ("synth_ca102", "shift", 3, False, 1,
     "e09c1fa8e9bd7cb773aa6745b584d6def38c21c29a93e21ed0ec8eafbfbcc561", True),
    ("synth_ca102", "shift_inv", 0, False, 1,
     "a9576fc6c32e665a0c4da6f4c558f56b28f5b6ba099e1d3d80962b5f6726d023", True),
    ("synth_ca102", "shift_inv", 1, False, 1,
     "6d4f4211d08f9178631274f96b038973945ccb06b37da15abdbddd4c4f6900b0", True),
    ("synth_ca102", "shift_inv", 2, False, 1,
     "9f442ae823404ff7451324f2250fc5a082e83f24cf497d996734d4902c4edfa8", True),
    ("synth_ca102", "shift_inv", 3, False, 1,
     "e09c1fa8e9bd7cb773aa6745b584d6def38c21c29a93e21ed0ec8eafbfbcc561", True),
    ("synth_ca102", "ca102", 0, True, 60, None, True),
    ("synth_ca102", "ca102", 1, True, 60, None, True),
    ("synth_ca102", "ca102", 2, True, 60, None, True),
    ("synth_ca102", "ca102", 3, True, 60, None, True),
    ("synth_ca102", "xor_left", 0, False, 1,
     "a9576fc6c32e665a0c4da6f4c558f56b28f5b6ba099e1d3d80962b5f6726d023", False),
    ("synth_ca102", "xor_left", 1, False, 1,
     "6d4f4211d08f9178631274f96b038973945ccb06b37da15abdbddd4c4f6900b0", True),
    ("synth_ca102", "xor_left", 2, False, 1,
     "9f442ae823404ff7451324f2250fc5a082e83f24cf497d996734d4902c4edfa8", False),
    ("synth_ca102", "xor_left", 3, False, 1,
     "e09c1fa8e9bd7cb773aa6745b584d6def38c21c29a93e21ed0ec8eafbfbcc561", False),
    ("synth_ca102", "and_rule", 0, False, 1,
     "a9576fc6c32e665a0c4da6f4c558f56b28f5b6ba099e1d3d80962b5f6726d023", True),
    ("synth_ca102", "and_rule", 1, False, 1,
     "6d4f4211d08f9178631274f96b038973945ccb06b37da15abdbddd4c4f6900b0", True),
    ("synth_ca102", "and_rule", 2, False, 1,
     "9f442ae823404ff7451324f2250fc5a082e83f24cf497d996734d4902c4edfa8", True),
    ("synth_ca102", "and_rule", 3, False, 1,
     "e09c1fa8e9bd7cb773aa6745b584d6def38c21c29a93e21ed0ec8eafbfbcc561", True),
]


def test_pin_sets_cover_the_stated_cases():
    assert len(TABLES) == 33
    assert [name for name, _ in TABLES[9:]] == [
        f"affine{a}{b}{c}" for a in range(3) for b in range(3)
        for c in range(3) if a or b]
    q2_blocks = [n for n in BUILTIN_BLOCK_RULES
                 if builtin_block_rule(n).q == 2
                 and builtin_block_rule(n).is_bijective()]
    q2_rules = [n for n in BUILTIN_RULES if builtin_rule(n).q == 2]
    blocks = q2_blocks + ["synth_identity", "synth_shift", "synth_ca102"]
    assert [row[:3] for row in SAMPLED] == [
        (b, f, s) for b in blocks for f in q2_rules for s in range(4)]
    # both early stops are exercised
    assert sum(not row[3] for row in SAMPLED) == 120
    assert sum(not row[6] for row in SAMPLED) == 31


@pytest.mark.parametrize("name,expected", TABLES, ids=[t[0] for t in TABLES])
def test_synthesized_table_is_pinned(name, expected):
    f = pinned_rule(name)
    chi = synthesize(f, slider_exists(f))
    assert hashlib.sha256(json.dumps(chi.table).encode()).hexdigest() == expected


@pytest.mark.parametrize("block", sorted({row[0] for row in SAMPLED}))
def test_sampled_outcomes_are_pinned(block):
    chi = pinned_block_rule(block)
    for _, rule, seed, *expected in (r for r in SAMPLED if r[0] == block):
        f = builtin_rule(rule)
        result = verify_slider(chi, f, samples=60, seed=seed)
        assert sampled_outcome(result) == tuple(expected), (block, rule, seed)
        # the one-pass loop answers exactly what two loops answered
        assert result == two_pass_verify(chi, f, samples=60, seed=seed)


def test_code_construction_matches_pair_oracle():
    rules = [pinned_rule(name) for name, _ in TABLES]
    # and a seeded sample of width-2 rules over q = 2 and 3
    rng = random.Random(71)
    for _ in range(300):
        q = rng.choice((2, 3))
        rules.append(LocalRule(q, rng.randrange(-1, 1), 2,
                               tuple(rng.randrange(q) for _ in range(q * q))))
    sliders = 0
    for f in rules:
        verdict = slider_exists(f)
        if verdict:
            sliders += 1
            assert synthesize(f, verdict) == pair_synthesize(f, verdict)
    assert sliders == 33 + 40

