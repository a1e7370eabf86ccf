"""The sweep's output bytes, pinned: the SHA-256 of every file that three
small sweeps write. Between them they reach beam merges (n_beams 1, 2),
splits (5) and repeat beams (7, more beams than UEs), the disk and the
informative two-mode PDFs, both cluster initialisations, both kinds of
movement (the periodic redraw, and a position trace that moves some UEs
and leaves the others where they were first drawn) and queues that stay
shallow or grow without bound: a load sweep up to about 140 arrivals per
UE and TTI of 264-bit packets, far more than the links can drain. A
change to the simulator that is meant to keep its results must leave
every digest as it is."""

import hashlib

import pytest

from mmwavesim.cli import run_sweep
from mmwavesim.config import parse_config_text

COMMON = "tti_count = 150\nhidden_units = 7\n"

TRACE = (
    "tti,ue_id,x_m,y_m\n"
    "0,0,120.0,15.0\n0,2,-40.0,90.0\n0,3,35.5,-140.25\n"
    "40,1,60.0,60.0\n40,4,-100.0,-20.0\n"
    "80,0,-5.0,150.0\n80,2,-41.0,88.0\n80,5,10.0,-3.0\n"
    "120,3,110.0,-70.0\n"
)

CONFIGS = {
    "redraw": "runs = 1\nsweep_variable = n_beams\nsweep_values = 2,5\n",
    "saturated": (
        "runs = 2\npacket_size_bytes = 33\nsweep_variable = load_bps\nsweep_values = 4e6,3e8\n"
    ),
    "trace": (
        "runs = 2\nsweep_variable = n_beams\nsweep_values = 1,2,5,7\ninformative_pdf = true\n"
        "cluster_init = random_points\nposition_trace_csv = {trace}\n"
    ),
}

DIGESTS = {
    "redraw": {
        "report_kmeans_error_n_beams_0.csv": (
            "b3f393823a30a3756dbc0c61f1b8cc22215cce5bb2da927bb21e838dfe2eab45"
        ),
        "report_kmeans_error_n_beams_1.csv": (
            "bbbffbe07b995382da7283baaaef36da3787a9ec1b673cd1833b47306efb76a4"
        ),
        "report_kmeans_exact_n_beams_0.csv": (
            "e65623d3d261d1cfb5e75798506fccafda3860fb4a2c30eecf10d6336c255288"
        ),
        "report_kmeans_exact_n_beams_1.csv": (
            "c3caf464b2549c0374c39cc666f0745cb169367ebb57daddf7bec3b09f7f3d61"
        ),
        "report_ukmeans_error_n_beams_0.csv": (
            "b3f393823a30a3756dbc0c61f1b8cc22215cce5bb2da927bb21e838dfe2eab45"
        ),
        "report_ukmeans_error_n_beams_1.csv": (
            "bbbffbe07b995382da7283baaaef36da3787a9ec1b673cd1833b47306efb76a4"
        ),
        "summary_kmeans_error_n_beams_0.csv": (
            "43f93b14a6edbebf8ed0b350e5b49b537bdd417ca8c309f262b5024edbd64f39"
        ),
        "summary_kmeans_error_n_beams_1.csv": (
            "37457714950165a99d3f39dab2d4bf6d822709a5100f1916f541ff09821dcd43"
        ),
        "summary_kmeans_exact_n_beams_0.csv": (
            "e3af5d464ecabc670423cac17ffaef97031e79409a9225c8e09968d5cc85ebf6"
        ),
        "summary_kmeans_exact_n_beams_1.csv": (
            "888f3607c1bed125884877fc7ae392a07c46fb3ae98e499fb722810565745ab4"
        ),
        "summary_ukmeans_error_n_beams_0.csv": (
            "8dde70d35cb0892810db2c505929d3ed3484c64a86bbe2d86cfb652befb0880a"
        ),
        "summary_ukmeans_error_n_beams_1.csv": (
            "cd1dce9b455bd601de9e6d56c2a20391ef92d619328b4c1f0f94073c39498f61"
        ),
        "sweep_summary.csv": (
            "24165635f901de327862e35b5a4d25d7fc689ff1d8df6fcf30c7f58290ff0fee"
        ),
    },
    "saturated": {
        "report_kmeans_error_load_bps_0.csv": (
            "33e1724dd2e38a100b61fb4f767318beb85ca4d7de2e133dbec7021de882d55e"
        ),
        "report_kmeans_error_load_bps_1.csv": (
            "90a1e5e08f367cda2d957bc941f773f3ac274ab8538afeee4112604bb2444929"
        ),
        "report_kmeans_exact_load_bps_0.csv": (
            "b6dddda8e5ee8395a9fd61bc07da28f4ee9f4e81e440d1f71c3fee4ce3cb5e6f"
        ),
        "report_kmeans_exact_load_bps_1.csv": (
            "4426f9d03dbff2758402820a921bff0ef5b17e0baff5f271be7653ff35ff10c9"
        ),
        "report_ukmeans_error_load_bps_0.csv": (
            "33e1724dd2e38a100b61fb4f767318beb85ca4d7de2e133dbec7021de882d55e"
        ),
        "report_ukmeans_error_load_bps_1.csv": (
            "90a1e5e08f367cda2d957bc941f773f3ac274ab8538afeee4112604bb2444929"
        ),
        "summary_kmeans_error_load_bps_0.csv": (
            "2ee7a2648171430d843c2e5da32d84dff35c01a7f41b586c49e69cca9a072bd2"
        ),
        "summary_kmeans_error_load_bps_1.csv": (
            "a4aa67a77b2d90cd1c37df9aa55fb5d20dccf809d9302a5efb863d3baf584b3d"
        ),
        "summary_kmeans_exact_load_bps_0.csv": (
            "68437c4031588d2fa5078a854d3e281b045507d57dabffba6a0ace16bb0fe001"
        ),
        "summary_kmeans_exact_load_bps_1.csv": (
            "50510e0666539bdaea3bc88b8a8f5b3444d3f609a8affaae31fce55a01c38dc5"
        ),
        "summary_ukmeans_error_load_bps_0.csv": (
            "80cc012bfda39f32dc3aa1e566bfe41d2103ffe7b45e16660eb5c339aa72c35c"
        ),
        "summary_ukmeans_error_load_bps_1.csv": (
            "d595910c726463b97a4ede02d869b6bc2a830bd50e02f02e13dbaccff27ac901"
        ),
        "sweep_summary.csv": (
            "6856d56407da611603e6dcfa9900121d8c4c606c6ab0a0b0612c6287d1e1de79"
        ),
    },
    "trace": {
        "report_kmeans_error_n_beams_0.csv": (
            "3c91f424bbfdf3de9eaab553a5ed6990a79ec931aa929e46a48edc5586a5ac11"
        ),
        "report_kmeans_error_n_beams_1.csv": (
            "8f5179d188ac881b46ae1ac4171c010ea0ec1780a0e820bf6b076b79fa7566ea"
        ),
        "report_kmeans_error_n_beams_2.csv": (
            "0a6474dc0d137090398e9026c69c0154068679283003a60880c69929925505be"
        ),
        "report_kmeans_error_n_beams_3.csv": (
            "f60ce21518f2d691f5ba877ea32b149e526ff215ebe7793cb41a73ad89315292"
        ),
        "report_kmeans_exact_n_beams_0.csv": (
            "9e7006db275a41beabd153812be20c270512b8491d00dc33c405974b46654915"
        ),
        "report_kmeans_exact_n_beams_1.csv": (
            "175679db86f24373b9edff92e6ac61a0480983cf27e34e60e6350e5e45e304af"
        ),
        "report_kmeans_exact_n_beams_2.csv": (
            "5750248465ccb8444c3a81e1fa00596b920914342a9d0da72012e1a91334ba7c"
        ),
        "report_kmeans_exact_n_beams_3.csv": (
            "49cd4d557c020a40f1f7000aacf8b88df7a76f46c317743405725a1c5051b8e0"
        ),
        "report_ukmeans_error_n_beams_0.csv": (
            "9f27202779f5a3d5952858c31d7981c5fd74ef85cd057fa5961fcb2b3e1a25b0"
        ),
        "report_ukmeans_error_n_beams_1.csv": (
            "abab6d8e9abf450a76a434f68d19dd0a9de5533fb3429d2f1aa312e799a1f132"
        ),
        "report_ukmeans_error_n_beams_2.csv": (
            "b24459b4e0e9b36bf224cd5faeb1501d1ba84fed8541c391743b8bd9c32e2b12"
        ),
        "report_ukmeans_error_n_beams_3.csv": (
            "99d25470d18942e0714159b82e4a623685f8eeb03c7d0ef2317a71a49492fe1f"
        ),
        "summary_kmeans_error_n_beams_0.csv": (
            "f85f22f168332a5ef30389441062656d8c3a15680da97c8d937e9f79ff9951c4"
        ),
        "summary_kmeans_error_n_beams_1.csv": (
            "f5d33c58dc581cbdc7456c38ee927f7028bf3ba8e22d0f8ad19594114065ce36"
        ),
        "summary_kmeans_error_n_beams_2.csv": (
            "abf689b92cdada64a2be8e86d4db8f48b17f3d37127ba6c37e2406adf3fa0e01"
        ),
        "summary_kmeans_error_n_beams_3.csv": (
            "a47250adf2f51f8d3c1d78bab180275a26d7f0170fd7a2c56a8a3d91a7d208ab"
        ),
        "summary_kmeans_exact_n_beams_0.csv": (
            "cb6d246c8f19208235bb14a6a0a7d47504b3fb5d1cc407e2d0b469ec71b19ff8"
        ),
        "summary_kmeans_exact_n_beams_1.csv": (
            "19b31167e79cffd5a5f27812b73a52efed52f067ae5f0b41a14ff7f7b7f4985d"
        ),
        "summary_kmeans_exact_n_beams_2.csv": (
            "816e05d64179509069e702d54c5fa9e814029d1c667f6c103422f5c8eaec2276"
        ),
        "summary_kmeans_exact_n_beams_3.csv": (
            "c9045c576cf51352eb47cb86f30a238cb9134ebdfd2d6fd3905d9e8cc7f7ed32"
        ),
        "summary_ukmeans_error_n_beams_0.csv": (
            "0b1520f1dbeae81927f2818f077f69b0fc1e1a7d5eef6a77300a12ffafb96de7"
        ),
        "summary_ukmeans_error_n_beams_1.csv": (
            "f6d3866e1e1a1dc58dc995f977e35d674ce1cec9a483d176c4a55b67101a1fb6"
        ),
        "summary_ukmeans_error_n_beams_2.csv": (
            "ded9976943e66c83d689ca31c0a818a10dde9395f72e73c9e9fbb2323cb23cf3"
        ),
        "summary_ukmeans_error_n_beams_3.csv": (
            "9e4a190428222fd2e856ab0701e187c8cbde298d7087efc129a9c1f9c80e684e"
        ),
        "sweep_summary.csv": (
            "72173a9b013b06e7ec386886d9846896a757156dc92d071a72c8d18f73cc8448"
        ),
    },
}


def _digests(tmp_path, name):
    trace = tmp_path / "trace.csv"
    trace.write_text(TRACE)
    spec = parse_config_text(COMMON + CONFIGS[name].format(trace=trace))
    out = tmp_path / "out"
    assert run_sweep(spec, str(out)) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sweep_bytes_are_pinned(tmp_path, name):
    assert _digests(tmp_path, name) == DIGESTS[name]
