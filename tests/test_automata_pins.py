"""Pinned dumps and witnesses of the bundled relation automata.

For each bundled block rule, each automaton kind, alone and as the flag
product `oracles.flag_intersect` with the mismatch automaton of every
same-alphabet CA, `PINS` holds the sha256 of the sorted-key JSON dump and
the JSON of `nonempty_witness`.  The table was generated once from the
named-state implementation; any change to state numbering, edge order or
witness search fails here.

The slider rows of `PINS` pin the whole slider automaton, all m q^(2m-2)
states of its L, bridge and R layers, which the named-state builder gives
(`oracles.whole_slider_automaton`).  `automata` builds its L core alone,
which accepts the same relation; `LIVE` pins the dump and the witness of
each slider row on the core, computed from `oracles.l_core_automaton`.

`automata dump` and `automata empty --vs` build the plain product
`intersect`; `PLAIN` pins its dump and witness for every `--vs` row.  Its
slider rows pin the product on `trim` of the whole automaton, whose
initial and final states differ, and `LIVE_PLAIN` pins it on the L core,
computed from `oracles.l_core_automaton`.  On the whole automaton the
product has the same verdict and accepts the core's witness.
"""

import hashlib
import json

import pytest

from casweep.blockrule import builtin_block_rule
from casweep.ca import builtin_rule
from casweep.core import ep_to_json
from casweep.zautomata import (graph_mismatch_automaton, intersect, member,
                               nonempty_witness, slider_relation_automaton,
                               sweeper_relation_automaton, trim)
from oracles import flag_intersect, is_empty, whole_slider_automaton

KINDS = {"slider": slider_relation_automaton,
         "sweeper": sweeper_relation_automaton}

# (kind, block rule, --vs rule or None, dump sha256, witness JSON or None)
PINS = [
    ("slider", "swap", None,
     "a92fbec2c3237431019fde6f4ac66e9bd2d8dd28019aa995a9e832083e1e93c1",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "swap", "identity",
     "473e0274e94b9afe2bdc41bebf5029ce48a24ed6801eac435f239217030b11b0",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [1, 2]}),
    ("slider", "swap", "shift",
     "2cbede669267fe8c4814e1f7bd51fbd5fad90fb6a67c95c9ac8fab27b8f1bb1d",
     None),
    ("slider", "swap", "shift_inv",
     "32b53a1263dcb650be2d019ea55abca9361316920c5836e46514fbdebed2b6ab",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 2,
      "right_period": [1, 2]}),
    ("slider", "swap", "ca102",
     "a0cb93a9e0f7463051b14c2e416b4fd13f1a00b170635bcf29338398d8e48745",
     {"alphabet": 4, "left_period": [1, 2], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "swap", "xor_left",
     "6440f49ae657eec8b7df046827eb6b7cfb82ff49662b6c34ec3b382f514a9b7b",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [1, 2]}),
    ("slider", "swap", "and_rule",
     "a871691375c3d6eece628dd0300b3db3ef41f75dc13ce7e8126b1e7dea28e014",
     {"alphabet": 4, "left_period": [1, 2], "center": [], "center_start": 1,
      "right_period": [0]}),
    ("sweeper", "swap", None,
     "6991a8531cd6e66f12d17a18ab4c4f3cb7d0755a949f9e37c4271b150b7578ae",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "swap", "identity",
     "28af5dab741dc94c7c28ee332cebba5c4b7f042fefa42971f7eec37852cb1dfb",
     {"alphabet": 4, "left_period": [0], "center": [1, 2], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "swap", "shift",
     "ffad2183c9886275660741d1d21cf9a5cea123ade44b1f51317d125f81a0470d",
     None),
    ("sweeper", "swap", "shift_inv",
     "e8e1b7bdbffd499ed02f7ff95eb8633f9eb93fb5b16d0bbdf48a2aa82f279d67",
     {"alphabet": 4, "left_period": [0], "center": [1, 2], "center_start": 1,
      "right_period": [0]}),
    ("sweeper", "swap", "ca102",
     "2990c3378af2fb82373c8b69b80a8806c759bc0ea4bb4222b9bc0ba1aa78475a",
     {"alphabet": 4, "left_period": [1, 2], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "swap", "xor_left",
     "6cbab9f1002cdba0a3c38971e0218ddcc174c94a2a2ce6ec5a3bc4d0258877c3",
     {"alphabet": 4, "left_period": [0], "center": [1, 2], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "swap", "and_rule",
     "f6d372fe00530666914cc84db09ae732bfcfeff02e04d887b911a714514a19f3",
     {"alphabet": 4, "left_period": [0, 1, 2], "center": [], "center_start":
      1, "right_period": [0]}),
    ("slider", "xor_block", None,
     "d8c7197e7caf1a001f0a81c0f9e10059f32ec13ccfaa5ae602ec5af588701cb7",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "xor_block", "identity",
     "2a4fe986010ad398f4802401e384d785efa0854c21bd627e9925fb28b7dbfa6d",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [1, 3]}),
    ("slider", "xor_block", "shift",
     "9e9f4aab296898117bf7d9cfddb2e8b94d532f2630c110038a3edda52b29c3fc",
     {"alphabet": 4, "left_period": [1, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "xor_block", "shift_inv",
     "b5b95604b76c3e2d51394af918e309410f200b10765413b9a9f2c5e5159b933d",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 2,
      "right_period": [1, 3]}),
    ("slider", "xor_block", "ca102",
     "863c73696f59cf2d34938001eb5e46e41f7d8e3cfff4b90cd14d20e93751942f",
     None),
    ("slider", "xor_block", "xor_left",
     "6801da48dd7092de8b41baa16050ca4724fb3b56b435a1cb84435bc8fa383d47",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [1, 3]}),
    ("slider", "xor_block", "and_rule",
     "68e127d82e40e1205fbf55bf2ab8144c283b1d8a8760420ee23428dfc45771c2",
     {"alphabet": 4, "left_period": [1, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "xor_block", None,
     "115294743cd4f7db7abc57d75ae89ff8fcb44a7cb2132daa277d0b59cf47e861",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "xor_block", "identity",
     "00e0fcdf39d22cf34b550cffe044205d23d52135916f607348659a3da5cb685a",
     {"alphabet": 4, "left_period": [0], "center": [1], "center_start": 0,
      "right_period": [2]}),
    ("sweeper", "xor_block", "shift",
     "83392ac9ec58f6c3586d47d741cb873ab8d3a3fc793fafc371680fe5ba58c8ef",
     {"alphabet": 4, "left_period": [2], "center": [], "center_start": 0,
      "right_period": [2]}),
    ("sweeper", "xor_block", "shift_inv",
     "30226ceac894dafdb9296c05762522d6ae0c1b6cd6f406a4f917c878a7900a10",
     {"alphabet": 4, "left_period": [0], "center": [1], "center_start": 1,
      "right_period": [2]}),
    ("sweeper", "xor_block", "ca102",
     "912b50655c246fa106c2ad18eda94d88ce3bea2542daca7e302acf2c7ea118d1",
     None),
    ("sweeper", "xor_block", "xor_left",
     "02e0160c578a170690f9013e88b2a3bf4ff8568fdfc5b173e5f3883fc7c5361f",
     {"alphabet": 4, "left_period": [0], "center": [1], "center_start": 0,
      "right_period": [2]}),
    ("sweeper", "xor_block", "and_rule",
     "191960eac903e144a0e132116d7e481e6df67003a74cebbee31e0377b6fd7d5c",
     {"alphabet": 4, "left_period": [3, 1], "center": [], "center_start": 0,
      "right_period": [2]}),
    ("slider", "identity_block", None,
     "a98cace148cefd48dbe593c07a3345de0ee99bca5e38deb38e95cee5c6a224aa",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "identity_block", "identity",
     "778244bb8865ec4f8fba7734ef56f2eac5d1a1626fee2ee7453ee1501aa4c073",
     None),
    ("slider", "identity_block", "shift",
     "8c14400064b59fca86ec270c37acb56656058c914aff9860966159d10f80a298",
     {"alphabet": 4, "left_period": [0, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "identity_block", "shift_inv",
     "33822a69e6a46cf3f762ffca7be5bd0173d97f1a0754953b5393d9eab43230e9",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 1,
      "right_period": [0, 3]}),
    ("slider", "identity_block", "ca102",
     "d3868b8d549841b76a3bbeab4fe2307d238c2c79f3d6a42d537074359a81c70c",
     {"alphabet": 4, "left_period": [3, 0], "center": [], "center_start": 0,
      "right_period": [3, 0]}),
    ("slider", "identity_block", "xor_left",
     "e842e1c2672c7fcd2cb9c8efb8c229fee5f353061bde0d6187d15b9411374d77",
     {"alphabet": 4, "left_period": [0, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "identity_block", "and_rule",
     "e2cc9c8add5422dc812391b4bf9ca9ec14ebea59c3d3299134cd21226c813cb7",
     {"alphabet": 4, "left_period": [0, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "identity_block", None,
     "f3146b784840fac747ec1092407bfd2eb9e77a28399cc0b45299bdc41b0b7180",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "identity_block", "identity",
     "e1b72029bc5009f673bf194d2d35ca03df57b3091c25b198d6608efa8ad92eb4",
     None),
    ("sweeper", "identity_block", "shift",
     "47a88aa5b881d7f21d0552e07fceafcbee961c21a560143412f8dc874df255a5",
     {"alphabet": 4, "left_period": [0], "center": [3], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "identity_block", "shift_inv",
     "6022e69ff5c75878c1d51de6de9309c67060de4ca27946f4bb6c56e35c6fa9b2",
     {"alphabet": 4, "left_period": [0], "center": [3], "center_start": 1,
      "right_period": [0]}),
    ("sweeper", "identity_block", "ca102",
     "ef89a469cf0200ff28af39b0250f3b28eca87fb550fca0f5358c4082a6c5a6a0",
     {"alphabet": 4, "left_period": [0], "center": [3], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "identity_block", "xor_left",
     "c73e5ea89734a4f7ffc04db38ed7088ff9e540189042afd3f24070e92b547369",
     {"alphabet": 4, "left_period": [0, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "identity_block", "and_rule",
     "c41036efaf79dd1f4d08f035677a8a626bc47205d6538a60140a8019d9ae66a2",
     {"alphabet": 4, "left_period": [0, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "not_closed", None,
     "ad61e08b688bdeb18f51d4f46c7d4b605b8ceca19f6430928e92db09a0d0a2f0",
     {"alphabet": 16, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "not_closed", None,
     "403806478b7d67181b70052bb5d2fb7fd135b4a76b434f068d638801ca49ef39",
     {"alphabet": 16, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [0]}),
]

# (block rule, --vs rule or None) -> (dump sha256, witness JSON or None)
# of the L core
LIVE = {
    ("swap", None): (
        "f42e82f9336fe85bcaad1474fa9a621193c2686a46efe2607ba128ca8d6bc9f2",
        {"alphabet": 4, "left_period": [0], "center": [],
         "center_start": 0, "right_period": [0]}),
    ("swap", "identity"): (
        "1e6a90d7928d53d84de1e7f92cca608d38631fb6276f8001d83deb1781380e19",
        {"alphabet": 4, "left_period": [0], "center": [1, 2],
         "center_start": 1, "right_period": [0]}),
    ("swap", "shift"): (
        "06d263af77c7c1ad944936955f20b6f5b8307bb04a25cfb5235ca624e3167720",
        None),
    ("swap", "shift_inv"): (
        "951e547648d825c9c52ac8f0cf9cfadaf3ec4d002eeabef4a8541145682de1b6",
        {"alphabet": 4, "left_period": [0], "center": [1, 2],
         "center_start": 2, "right_period": [0]}),
    ("swap", "ca102"): (
        "a6725a1b2bd1376986f595dc5942d6e995834563ee946226ed5619a41c694f0c",
        {"alphabet": 4, "left_period": [1, 2], "center": [],
         "center_start": 1, "right_period": [0]}),
    ("swap", "xor_left"): (
        "cb5ac8a46de2ee3593de6376e2eb92e0e348817ecd9eea28d105cb8fbb87d98a",
        {"alphabet": 4, "left_period": [0], "center": [1, 2],
         "center_start": 1, "right_period": [0]}),
    ("swap", "and_rule"): (
        "68205da3b284aa37824b02fa5ee052c19c85875b484159863ab01dc5d8cf85d4",
        {"alphabet": 4, "left_period": [0], "center": [1, 2],
         "center_start": 0, "right_period": [0]}),
    ("xor_block", None): (
        "b63b2d13a5370177895eca16fca146b02ea90344bf443f1307483a0da389659c",
        {"alphabet": 4, "left_period": [0], "center": [],
         "center_start": 0, "right_period": [0]}),
    ("xor_block", "identity"): (
        "9fa7663b6f009fec3d85475dd926416316317ecd3bedb8f7cb89d82208064b5a",
        {"alphabet": 4, "left_period": [0], "center": [1],
         "center_start": 1, "right_period": [2]}),
    ("xor_block", "shift"): (
        "21a5b98323dbcf95cc935a7116f74a1eae3ba49b1982df4274416d5a64b461ba",
        {"alphabet": 4, "left_period": [2], "center": [],
         "center_start": 0, "right_period": [2]}),
    ("xor_block", "shift_inv"): (
        "80378273231a61b8cec62d6c04f2ce266396cecf4c31fea65794f25432ae1e26",
        {"alphabet": 4, "left_period": [0], "center": [1],
         "center_start": 2, "right_period": [2]}),
    ("xor_block", "ca102"): (
        "4e3d7f831130c2b21d1194e1649fce1ffd342d30b18856cf4a0765cef1ac7f5e",
        None),
    ("xor_block", "xor_left"): (
        "8f9013096418d2e7e5c4ce9e4b830c87c00199da27eaf963c9e968e9fd3bd579",
        {"alphabet": 4, "left_period": [0], "center": [1],
         "center_start": 1, "right_period": [2]}),
    ("xor_block", "and_rule"): (
        "d95804f2c72c6e60b10a32f93c221c120919037542bc09fc8219bfc86941ea14",
        {"alphabet": 4, "left_period": [0], "center": [1],
         "center_start": 0, "right_period": [2]}),
    ("identity_block", None): (
        "14c601633b6a4ab504682faded4b08efa6b3549c8a6ca1124a677a3a62d43747",
        {"alphabet": 4, "left_period": [0], "center": [],
         "center_start": 0, "right_period": [0]}),
    ("identity_block", "identity"): (
        "9bf677a7395c46f8eecc5b4538e97a5a0e1dbcf5e68ba4aa348646410d6c5885",
        None),
    ("identity_block", "shift"): (
        "5d98e1d7f113a108b1ad7477441752b088a7830c330c4aca79ecaec260396cf9",
        {"alphabet": 4, "left_period": [0], "center": [3],
         "center_start": 1, "right_period": [0]}),
    ("identity_block", "shift_inv"): (
        "fee9b19385734ba6650b8b2a04398ac7147ab5dba2438d79900f30511bfa2087",
        {"alphabet": 4, "left_period": [0], "center": [3],
         "center_start": 2, "right_period": [0]}),
    ("identity_block", "ca102"): (
        "5667dc5f8f16fc158d9959589890c3e5f42eea47dd0bc75636bfa68806cf862b",
        {"alphabet": 4, "left_period": [0], "center": [3],
         "center_start": 1, "right_period": [0]}),
    ("identity_block", "xor_left"): (
        "fcd452ff805845f6fd3499cb08e8ec20efea7bdaba26009ebaefccaaef2d1262",
        {"alphabet": 4, "left_period": [0, 3], "center": [],
         "center_start": 1, "right_period": [0]}),
    ("identity_block", "and_rule"): (
        "c62f9c483b5db2effae37ab59befa3cd4ee0bd037def65587aad23b8940b7776",
        {"alphabet": 4, "left_period": [0, 3], "center": [],
         "center_start": 1, "right_period": [0]}),
    ("not_closed", None): (
        "ba0d11b74cc9a5c44c3ed9c849b982a6ab6e1da13a648e267d8526bdf3bdf8cb",
        {"alphabet": 16, "left_period": [0], "center": [],
         "center_start": 0, "right_period": [0]}),
}

# (kind, block rule, --vs rule, dump sha256, witness JSON or None) of
# `intersect` on the sweeper automaton and on the trimmed whole slider
# automaton
PLAIN = [
    ("slider", "swap", "identity",
     "8eda747b0ad06473f145451d7694e227234ae4b65e47d6f1eaffd08ff923a49e",
     {"alphabet": 4, "left_period": [0], "center": [1], "center_start": 0,
      "right_period": [3]}),
    ("slider", "swap", "shift",
     "997e8c2a3d1865d2de4fff51447fab2a9cece94455ec6a8223350b4121ed9224",
     None),
    ("slider", "swap", "shift_inv",
     "22591388640569348693966271aed7dd0e064eaffc2b2b51d0320ebfec5c350c",
     {"alphabet": 4, "left_period": [0], "center": [1], "center_start": 1,
      "right_period": [3]}),
    ("slider", "swap", "ca102",
     "313b798980b19bc2cabedd8930abd1b677ff716f8681c6d423cf886c299bf1ed",
     {"alphabet": 4, "left_period": [1, 2], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "swap", "xor_left",
     "b9ce90220d631775113b68eea89920fc4966fef1d10ff851f284321d483a83c1",
     {"alphabet": 4, "left_period": [0], "center": [1], "center_start": 0,
      "right_period": [3]}),
    ("slider", "swap", "and_rule",
     "2e4ab33f5d2514f9f2575494fcf701d02031b49873970f7f06ca742c998dfe3b",
     {"alphabet": 4, "left_period": [1, 2], "center": [], "center_start": 1,
      "right_period": [0]}),
    ("sweeper", "swap", "identity",
     "8955a3e1a36f6a7bd459f8cf9b9b0692490cce191390f3b4f06dab3e49609800",
     {"alphabet": 4, "left_period": [0], "center": [1], "center_start": 0,
      "right_period": [3]}),
    ("sweeper", "swap", "shift",
     "29412cff943bb383ff4d9581ae4a1c5615abbbf0f17ff26e0bb16ccbc36336b6",
     None),
    ("sweeper", "swap", "shift_inv",
     "7ff71796f9542bf3637730f148483d56f712eb8cad02bdca3cac9fad8dc386bc",
     {"alphabet": 4, "left_period": [0], "center": [1], "center_start": 1,
      "right_period": [3]}),
    ("sweeper", "swap", "ca102",
     "3d69cf9aedb9aee4c427652dbd485f280bf4b5b8cc490c7112876682081a2ba1",
     {"alphabet": 4, "left_period": [1, 2], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "swap", "xor_left",
     "84af03ab22a9e028448455440926444ae0adbc018be407fa99b76220dd0f4487",
     {"alphabet": 4, "left_period": [0], "center": [1], "center_start": 0,
      "right_period": [3]}),
    ("sweeper", "swap", "and_rule",
     "173802d54baf054b7b5fb69099840b181b34b6dba431df041c343bf175a14fac",
     {"alphabet": 4, "left_period": [0, 1, 2], "center": [], "center_start": 1,
      "right_period": [0]}),
    ("slider", "xor_block", "identity",
     "6dd18957567f5917752a6236f305d1bbf274d8ec08da685ec97b2186544a5844",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [1, 3]}),
    ("slider", "xor_block", "shift",
     "25a3c1baf0607144de8156f4b1d4511f2ab2eb8865c917151a4c7d4e5771bfbc",
     {"alphabet": 4, "left_period": [1, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "xor_block", "shift_inv",
     "c08dd6b1c40b1d1a68722fb54ae050411fe4ecf63d9149386ee6453b9a3d7344",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 1,
      "right_period": [1, 3]}),
    ("slider", "xor_block", "ca102",
     "3a17298c358e662bb8f425d2e60a445a7c080dab9e9ada83e78645d4e0ab02c2",
     None),
    ("slider", "xor_block", "xor_left",
     "5da5e06c1f3a56abcbc370e759966818cdadfbfa632a0b42555bc310939b5acb",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [1, 3]}),
    ("slider", "xor_block", "and_rule",
     "6153ebba11146dccebd4f215653bebfdc778c54fab2e51bf476f72c477d25c31",
     {"alphabet": 4, "left_period": [1, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "xor_block", "identity",
     "d5aaeaadd66f2ec2026308b0cd66b7b37bcb09723f492282e8e0a982111a27ba",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [1, 3]}),
    ("sweeper", "xor_block", "shift",
     "66ddba92d3a899216b876a26dcd2dd32e588771521736390d1a60a7d667d5ec9",
     {"alphabet": 4, "left_period": [2], "center": [], "center_start": 0,
      "right_period": [2]}),
    ("sweeper", "xor_block", "shift_inv",
     "062d5096473be9ae84dfd7197d691a85e8bd1a002051f99b4800ce83b43b6325",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 1,
      "right_period": [1, 3]}),
    ("sweeper", "xor_block", "ca102",
     "550b4130b69b7941854f45d513691c7bbbb927106d5209a35553627a7c727f5f",
     None),
    ("sweeper", "xor_block", "xor_left",
     "7c37eb8bc10b697a370ccb9acc4e2560c4ac4737ed32a313a9583fc8f2f89b84",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [1, 3]}),
    ("sweeper", "xor_block", "and_rule",
     "e079461dc1bdd95f64be86c15c8f473097fbbe93bf909f9ffdcf56b189d51d57",
     {"alphabet": 4, "left_period": [3, 1], "center": [], "center_start": 0,
      "right_period": [2]}),
    ("slider", "identity_block", "identity",
     "9cb65c27517fc927095e969ad589a532ed62522f3fb27f5fdf599fabec11faf0",
     None),
    ("slider", "identity_block", "shift",
     "32614021b68fe649b10c0d2bd05479487e46e239114f5cf9387065e8191d4838",
     {"alphabet": 4, "left_period": [0, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "identity_block", "shift_inv",
     "4c3fc729479d92ec9d2b8b1dd1f145eb9b3e97df75f727a7a3ef767d78282f22",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 1,
      "right_period": [3]}),
    ("slider", "identity_block", "ca102",
     "909e9de18d24fdb3f5a05d1d713bf3c8818092dab77d8016316399caddd25d23",
     {"alphabet": 4, "left_period": [3, 0], "center": [], "center_start": 0,
      "right_period": [3]}),
    ("slider", "identity_block", "xor_left",
     "00d60ab62d09b80b879af18b300a3416e948810694900957d061db0593be2bdf",
     {"alphabet": 4, "left_period": [0, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("slider", "identity_block", "and_rule",
     "e4be8577908ddb98c6b896c00fc6051ecb17b3b6226a6142f39c09752eb1c650",
     {"alphabet": 4, "left_period": [0, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "identity_block", "identity",
     "98250b52f3e5510a5b7e0841fea45b2dd12537e9d5f86401e04823eb589665cc",
     None),
    ("sweeper", "identity_block", "shift",
     "72164503cdc8414e96d4227acb2edef46f3016704b7c9d9c3b3bef8fa6ecaa6c",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [3]}),
    ("sweeper", "identity_block", "shift_inv",
     "d0f6bd64a4a6aebc8b2556df5f5a1af7dabc070cbf9fcf624eac06854e657796",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 1,
      "right_period": [3]}),
    ("sweeper", "identity_block", "ca102",
     "fb394fe4f5af40d8da7e56176d9c4c73ec9a38254e8184ddcc8932fef49605ba",
     {"alphabet": 4, "left_period": [0], "center": [], "center_start": 0,
      "right_period": [3]}),
    ("sweeper", "identity_block", "xor_left",
     "df8cea6a3bf15582ff94319710267d50fe8dfba89682d30343cfc39abe3e8574",
     {"alphabet": 4, "left_period": [0, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
    ("sweeper", "identity_block", "and_rule",
     "3b02de23e134c58c7750d85bdedb7ff3945a5fbaa1875f502cddb9b5af263cd9",
     {"alphabet": 4, "left_period": [0, 3], "center": [], "center_start": 0,
      "right_period": [0]}),
]


# (block rule, --vs rule) -> (dump sha256, witness JSON or None) of
# `intersect` on the L core
LIVE_PLAIN = {
    ("swap", "identity"): (
        "aefc5193639fe3576db9aafbebcc08c033a126dcd9b7d62085d6a6bc77b0d1a2",
        {"alphabet": 4, "left_period": [0], "center": [1],
         "center_start": 0, "right_period": [3]}),
    ("swap", "shift"): (
        "888e5b93363024208dc0b226131189d60f5a1c761e02f1acede8536066c82a9f",
        None),
    ("swap", "shift_inv"): (
        "fd174d4de35a8fb544bbbf6b7d4e75ce8b884b810131e63fa5328d6081fd3fac",
        {"alphabet": 4, "left_period": [0], "center": [1],
         "center_start": 1, "right_period": [3]}),
    ("swap", "ca102"): (
        "cb16813222369fcb1434b35f998149855694767f7be313926dc2ee91463cc953",
        {"alphabet": 4, "left_period": [1, 2], "center": [],
         "center_start": 0, "right_period": [0]}),
    ("swap", "xor_left"): (
        "1094a5ff8e094dfbbeb30a614673b12458cc479ae6e404125482bfad419d2e25",
        {"alphabet": 4, "left_period": [0], "center": [1],
         "center_start": 0, "right_period": [3]}),
    ("swap", "and_rule"): (
        "f5cb662b3a45767ae5d9d58b23c49012918257af839c7a84e5fb9d5b771adb26",
        {"alphabet": 4, "left_period": [1, 2], "center": [],
         "center_start": 1, "right_period": [0]}),
    ("xor_block", "identity"): (
        "f09625c670158ace7b3ae382e87941658f6b0dc6df372abde349b1d779ada122",
        {"alphabet": 4, "left_period": [0], "center": [1],
         "center_start": 0, "right_period": [2]}),
    ("xor_block", "shift"): (
        "a8076ad19f02d6d0529438fe356f2b946d26849ee61fa9a53f43125454bdaa9d",
        {"alphabet": 4, "left_period": [1, 3], "center": [],
         "center_start": 0, "right_period": [0]}),
    ("xor_block", "shift_inv"): (
        "122a810b36e829e224c37b0710110261b73021e1f96960b85667a186008382a5",
        {"alphabet": 4, "left_period": [0], "center": [1],
         "center_start": 1, "right_period": [2]}),
    ("xor_block", "ca102"): (
        "055e8baeb0bf8730d04e9ecaf25284f91a42e8391a428d0668b21cbcefeb28ef",
        None),
    ("xor_block", "xor_left"): (
        "5d2c942ed58e5d882822fa07580295fbf1e5c148469fa50cb2d57214538256b8",
        {"alphabet": 4, "left_period": [0], "center": [1],
         "center_start": 0, "right_period": [2]}),
    ("xor_block", "and_rule"): (
        "b0e9dfc4c841ffdae73a102f5d9a56ec38926f2125b94c72fa0820443a0444ad",
        {"alphabet": 4, "left_period": [1, 3], "center": [],
         "center_start": 0, "right_period": [0]}),
    ("identity_block", "identity"): (
        "18ebfd3f65537ad7dc53d3a096084260791115da13fdd098c9654ded7bac22bf",
        None),
    ("identity_block", "shift"): (
        "0770587bc4c34ad1a98bb230d90f9a009257c802243687d13cd47f1b74162b9c",
        {"alphabet": 4, "left_period": [0, 3], "center": [],
         "center_start": 0, "right_period": [0]}),
    ("identity_block", "shift_inv"): (
        "6956813274e4a98c6bec6294fab8a81f53180dea0c50a4a02f1d4240db06f6e8",
        {"alphabet": 4, "left_period": [0], "center": [3],
         "center_start": 1, "right_period": [0]}),
    ("identity_block", "ca102"): (
        "a4b1b5e3f0703fb5004c550d05f672bd22266c66ec6e02a6ebf9f7aba128908e",
        {"alphabet": 4, "left_period": [0, 3], "center": [],
         "center_start": 1, "right_period": [0]}),
    ("identity_block", "xor_left"): (
        "c40863849a756613fee4dcca09025480b41e13a968fd64dabf03b03a61fabc29",
        {"alphabet": 4, "left_period": [0, 3], "center": [],
         "center_start": 0, "right_period": [0]}),
    ("identity_block", "and_rule"): (
        "a71bf81f3a4f7600217a1751ecf04ad3cb40eed29b98b86a4e51edfeb96d4ad3",
        {"alphabet": 4, "left_period": [0, 3], "center": [],
         "center_start": 0, "right_period": [0]}),
}


def test_table_covers_every_case():
    assert len(PINS) == 44
    assert len({row[:3] for row in PINS}) == 44
    assert {("slider",) + key for key in LIVE} \
        == {row[:3] for row in PINS if row[0] == "slider"}
    assert [row[:3] for row in PLAIN] == [row[:3] for row in PINS
                                          if row[2] is not None]
    assert {("slider",) + key for key in LIVE_PLAIN} \
        == {row[:3] for row in PLAIN if row[0] == "slider"}


@pytest.mark.parametrize("kind,block,vs,digest,witness", PINS,
                         ids=lambda v: str(v)[:12])
def test_dump_and_witness_are_pinned(kind, block, vs, digest, witness):
    A = KINDS[kind](builtin_block_rule(block))
    if kind == "slider":
        digest, witness = LIVE[block, vs]
    assert_pinned(A, vs, digest, witness)


@pytest.mark.parametrize("kind,block,vs,digest,witness",
                         [row for row in PINS if row[0] == "slider"],
                         ids=lambda v: str(v)[:12])
def test_whole_slider_automaton_is_pinned(kind, block, vs, digest, witness):
    assert_pinned(whole_slider_automaton(builtin_block_rule(block)), vs,
                  digest, witness)


@pytest.mark.parametrize("kind,block,vs,digest,witness", PLAIN,
                         ids=lambda v: str(v)[:12])
def test_intersection_is_pinned(kind, block, vs, digest, witness):
    chi = builtin_block_rule(block)
    mismatch = graph_mismatch_automaton(builtin_rule(vs))
    if kind == "slider":
        assert_pinned(intersect(trim(whole_slider_automaton(chi)), mismatch),
                      None, digest, witness)
        digest, witness = LIVE_PLAIN[block, vs]
    A = intersect(KINDS[kind](chi), mismatch)
    assert_pinned(A, None, digest, witness)
    if kind == "slider":
        whole = intersect(whole_slider_automaton(chi), mismatch)
        found = nonempty_witness(A)
        assert (found is None) is is_empty(whole)
        assert found is None or member(whole, found)


def assert_pinned(A, vs, digest, witness):
    if vs is not None:
        A = flag_intersect(A, graph_mismatch_automaton(builtin_rule(vs)))
    blob = json.dumps(A.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
    found = nonempty_witness(A)
    assert (None if found is None else ep_to_json(found)) == witness
