"""Point-wise 3D velocity estimation from FMCW radar, LiDAR and optical flow.

Pipeline: simulate (or record) raw ADC frames -> windowed DFT-matrix products
build a (range, azimuth, elevation, doppler) magnitude cube -> Doppler collapse,
which applies the relative-intensity threshold, into a per-voxel radial
velocity cube -> context-window table over all voxels, read at every LiDAR
point + optical flow -> closed-form 3D velocity per point -> object-wise
metrics. Non-finite ADC samples, flow on covered pixels and velocities are
rejected where they enter, so a bad file fails instead of scoring NaN.
"""
from .cube import (
    AdcCube,
    RadarConfig,
    RadarCube,
    build_radar_cube,
    doppler_bin_velocities,
    threshold_cube,
)
from .fusion import (
    COND_BOUND,
    estimate_frame,
    read_flow,
    solve_velocities,
)
from .io import (
    FormatError,
    FrameBundle,
    load_scene,
    read_frame_sequence,
    read_tensor,
    read_velocity_sequence,
    write_frame_sequence,
    write_report,
    write_tensor,
)
from .metrics import (
    EvalFrame,
    MetricsReport,
    ObjectTrack,
    TrackFrame,
    ave,
    build_tracks,
    cluster_points,
    decompose_radial_tangential,
    evaluate_tracks,
    scored_frames,
)
from .sim import (
    Scatterer,
    SceneConfig,
    ground_truth_velocities,
    simulate_adc,
    synth_flow,
    synth_lidar,
)
from .types import (
    CameraModel,
    FlowField,
    FramePair,
    PointCloud,
    PointStatus,
    VelocityPointCloud,
    project_points,
)
from .velcube import (
    ContextWindow,
    VelocityCube,
    cartesian_to_polar,
    collapse_doppler,
    query_radial_velocity,
    velocity_cube,
    window_table,
)

__version__ = "0.1.0"
